package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe matches expected-diagnostic comments in fixture files:
//
//	somecode() // want "substring of the diagnostic"
//
// Several want clauses may share one comment.
var wantRe = regexp.MustCompile(`want "([^"]+)"`)

// runGolden loads one testdata fixture directory as a package with the given
// pretend import path, runs a single analyzer through the full pipeline
// (including allow-directive suppression), and checks the diagnostics agree
// exactly with the fixture's want comments.
func runGolden(t *testing.T, a Analyzer, dir, importPath string) {
	t.Helper()
	pkg, err := LoadDir(filepath.Join("testdata", dir), importPath)
	if err != nil {
		t.Fatal(err)
	}
	if pkg == nil {
		t.Fatalf("no Go files in testdata/%s", dir)
	}

	type key struct {
		file string
		line int
	}
	wants := map[key][]string{}
	for _, f := range pkg.Files {
		for _, cg := range f.AST.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					pos := pkg.Fset.Position(c.Pos())
					k := key{filepath.Base(f.Name), pos.Line}
					wants[k] = append(wants[k], m[1])
				}
			}
		}
	}

	diags := Run([]*Package{pkg}, []Analyzer{a})
	unmatched := map[key][]string{}
	for k, v := range wants {
		unmatched[k] = append([]string(nil), v...)
	}
	for _, d := range diags {
		k := key{filepath.Base(d.Pos.Filename), d.Pos.Line}
		matched := false
		for i, w := range unmatched[k] {
			if strings.Contains(d.Message, w) {
				unmatched[k] = append(unmatched[k][:i], unmatched[k][i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, v := range unmatched {
		for _, w := range v {
			t.Errorf("%s:%d: expected diagnostic containing %q, got none", k.file, k.line, w)
		}
	}
}

// TestAnalyzerInventory pins the suite: eight analyzers, each documented,
// three of them module-wide.
func TestAnalyzerInventory(t *testing.T) {
	modules := 0
	for _, a := range All() {
		if a.Name() == "" || a.Doc() == "" {
			t.Errorf("analyzer %T missing name or doc", a)
		}
		if _, ok := a.(ModuleAnalyzer); ok {
			modules++
		}
	}
	if got := len(All()); got != 8 {
		t.Errorf("expected 8 analyzers, have %d", got)
	}
	if modules != 3 {
		t.Errorf("expected 3 module-wide analyzers, have %d", modules)
	}
}

// TestFixtureTypeCheck requires every golden fixture to type-check, so a
// fixture typo that starves the resolver fails here instead of quietly
// turning a seeded violation into a clean pass. The one deliberate error is
// errorflow's shadowed inner err, which is never read.
func TestFixtureTypeCheck(t *testing.T) {
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, []string{"./internal/lint/testdata/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 13 {
		t.Fatalf("loaded only %d fixture packages", len(pkgs))
	}
	const deliberate = "errorflow/fixture.go:46:3: declared and not used: err"
	found := false
	for _, pkg := range pkgs {
		for _, e := range pkg.TypeErrors {
			pos := e.Fset.Position(e.Pos)
			got := fmt.Sprintf("%s/%s:%d:%d: %s", filepath.Base(filepath.Dir(pos.Filename)), filepath.Base(pos.Filename), pos.Line, pos.Column, e.Msg)
			if got == deliberate && !found {
				found = true
				continue
			}
			t.Errorf("fixture does not type-check: %s", got)
		}
	}
	if !found {
		t.Errorf("missing the deliberate type error %q", deliberate)
	}
}

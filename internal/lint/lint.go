// Package lint implements reptile-lint, the project's static-analysis pass
// for the message-passing runtime. The paper's contribution is a concurrency
// design — distributed spectra served by a dedicated communication thread
// per rank — and the analyzers here mechanically enforce the invariants that
// design depends on: mutex discipline on shared state (lockguard), frozen
// spectrum stores written only at their declared freeze points (freezeguard),
// a closed send/receive protocol over the wire tags (wireproto), no
// sleep-based synchronization (nosleepsync), joined goroutine lifetimes
// (goroutine-hygiene), allocation-free declared hot loops (hotpath), errors
// that always reach a return or abort on typed-error paths (errorflow), and
// registry-before-use ordering of message-plane tags (msgorder).
//
// The tool is standard-library only: packages are discovered by walking the
// module tree go-list style via go/build, type-checked with go/types (module
// packages from source, the standard library from the toolchain's export
// data via go/importer), and analyzed over go/ast with the checker's
// resolution (see typeinfo.go) — no go/packages, no external analysis
// framework.
//
// Four comment directives tune the analyzers:
//
//	// reptile-lint:allow <analyzer> <reason>
//	    suppresses that analyzer's diagnostics on the same or next line.
//	    The reason is required, and a directive that suppresses nothing is
//	    itself reported (analyzer name "allow").
//	// reptile-lint:holds <mu>
//	    on a function's doc comment, declares that callers hold <mu>, so
//	    lockguard treats the body as running under that mutex.
//	// reptile-lint:build
//	    on a function's doc comment, declares the build/freeze phase that
//	    may write '// frozen:' fields, so freezeguard skips the body.
//	// reptile-lint:hotpath
//	    on a function's doc comment, declares a hot loop: hotpath checks
//	    the body and every resolvable module-local callee for
//	    per-iteration allocations.
package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// JSONDiagnostic is the machine-readable form one -json line carries. The
// field set is flat and stable so CI annotation tooling can rely on it.
type JSONDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// JSON returns the diagnostic in its machine-readable form.
func (d Diagnostic) JSON() JSONDiagnostic {
	return JSONDiagnostic{
		File:     d.Pos.Filename,
		Line:     d.Pos.Line,
		Col:      d.Pos.Column,
		Analyzer: d.Analyzer,
		Message:  d.Message,
	}
}

// File is one parsed source file.
type File struct {
	Name string // absolute path
	AST  *ast.File
	Test bool // *_test.go
}

// Package is one directory's worth of parsed Go files, with the go/types
// view of its non-test files. Test files are parsed for the syntactic
// analyzers only.
type Package struct {
	Dir        string
	ImportPath string
	Fset       *token.FileSet // shared by every package of one load
	Files      []*File        // GoFiles + TestGoFiles + XTestGoFiles, in that order
	Types      *types.Package
	Info       *types.Info
	// TypeErrors are what the checker rejected. Only a testdata fixture
	// may load with any: a module package that does not type-check fails
	// the load.
	TypeErrors []types.Error

	load *loader // the load that parsed and checked this package
}

// SourceFiles returns the non-test files.
func (p *Package) SourceFiles() []*File {
	out := make([]*File, 0, len(p.Files))
	for _, f := range p.Files {
		if !f.Test {
			out = append(out, f)
		}
	}
	return out
}

// Reporter collects diagnostics for one analyzer over one package.
type Reporter struct {
	pkg      *Package
	analyzer string
	diags    *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (r *Reporter) Reportf(pos token.Pos, format string, args ...any) {
	*r.diags = append(*r.diags, Diagnostic{
		Pos:      r.pkg.Fset.Position(pos),
		Analyzer: r.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one lint pass. Check inspects a package and reports findings;
// it must not depend on any other package having been checked.
type Analyzer interface {
	Name() string
	Doc() string
	Check(pkg *Package, r *Reporter)
}

// ModuleAnalyzer is an Analyzer that needs the whole loaded package set at
// once — cross-package call graphs, registry ordering. CheckModule runs
// exactly once per Run; diagnostics go through a per-package Reporter
// obtained from report, so allow directives are matched per package. Check
// is typically a no-op for these analyzers.
type ModuleAnalyzer interface {
	Analyzer
	CheckModule(m *Module, report func(*Package) *Reporter)
}

// All returns the full analyzer suite with default configuration.
func All() []Analyzer {
	return []Analyzer{
		NewLockGuard(),
		NewFreezeGuard(),
		NewWireProto(),
		NewNoSleepSync(),
		NewGoroutineHygiene(),
		NewHotPath(),
		NewErrorFlow(),
		NewMsgOrder(),
	}
}

// ModuleRoot walks upward from dir to the nearest go.mod.
func ModuleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		d = parent
	}
}

var modulePathRe = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// modulePath reads the module path from root's go.mod.
func modulePath(root string) (string, error) {
	b, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	m := modulePathRe.FindSubmatch(b)
	if m == nil {
		return "", fmt.Errorf("lint: no module line in %s/go.mod", root)
	}
	return string(m[1]), nil
}

// Load expands go-list-style patterns (".", "./...", "./internal/core",
// "./internal/...") relative to root into parsed, type-checked packages.
// Directories named testdata or vendor and hidden directories are skipped,
// matching the go tool's conventions.
func Load(root string, patterns []string) ([]*Package, error) {
	l, err := newLoader(root)
	if err != nil {
		return nil, err
	}
	dirs := map[string]bool{}
	for _, pat := range patterns {
		recursive := false
		if strings.HasSuffix(pat, "/...") || pat == "..." {
			recursive = true
			pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
		}
		if pat == "" {
			pat = "."
		}
		base := filepath.Join(root, filepath.FromSlash(pat))
		if !recursive {
			dirs[base] = true
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			dirs[path] = true
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sorted := make([]string, 0, len(dirs))
	for d := range dirs {
		sorted = append(sorted, d)
	}
	sort.Strings(sorted)

	// Parse everything before checking anything, so a package imported by
	// another in the set is the same *Package the set returns.
	var pkgs []*Package
	for _, dir := range sorted {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		imp := l.mod
		if rel != "." {
			imp = l.mod + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.parse(dir, imp)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	for _, pkg := range pkgs {
		if err := l.check(pkg); err != nil {
			return nil, err
		}
	}
	return pkgs, nil
}

// LoadDir parses and type-checks one directory as a package with the given
// import path; the module packages it imports are loaded from source
// alongside it. Returns (nil, nil) when the directory holds no buildable Go
// files.
func LoadDir(dir, importPath string) (*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, err := ModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	l, err := newLoader(root)
	if err != nil {
		return nil, err
	}
	pkg, err := l.parse(dir, importPath)
	if err != nil || pkg == nil {
		return nil, err
	}
	if err := l.check(pkg); err != nil {
		return nil, err
	}
	return pkg, nil
}

// loader is one load: every package shares fset, module packages import
// each other from pkgs (parsing one from the module tree on first import
// when the patterns did not name it), and the standard library comes from
// the toolchain's export data.
type loader struct {
	root, mod string
	fset      *token.FileSet
	pkgs      map[string]*Package // by import path
	std       types.Importer
}

// stdExports maps standard-library import paths to their export data files
// ("" where go list has none). The files do not change while the process
// runs, so every load shares the one table.
var stdExports = struct {
	sync.Mutex
	files map[string]string
}{files: map[string]string{}}

func newLoader(root string) (*loader, error) {
	mod, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	l := &loader{
		root: root,
		mod:  mod,
		fset: token.NewFileSet(),
		pkgs: map[string]*Package{},
	}
	l.std = importer.ForCompiler(l.fset, "gc", l.exportData)
	return l, nil
}

// inModule reports whether an import path names a package of the module.
func (l *loader) inModule(path string) bool {
	return path == l.mod || strings.HasPrefix(path, l.mod+"/")
}

// exportData opens the toolchain's export data for a standard-library
// package. A path not yet listed is looked up together with every other
// unlisted import the load's parsed source files name, so a process runs
// one `go list -export` for the first load, plus one per module package
// parsed later that imports something new, rather than one per
// standard-library package.
func (l *loader) exportData(path string) (io.ReadCloser, error) {
	stdExports.Lock()
	defer stdExports.Unlock()
	if _, listed := stdExports.files[path]; !listed {
		want := []string{path}
		for _, pkg := range l.pkgs {
			for _, f := range pkg.SourceFiles() {
				for _, imp := range f.AST.Imports {
					p, err := strconv.Unquote(imp.Path.Value)
					if _, listed := stdExports.files[p]; err == nil && !listed && !l.inModule(p) && p != "C" && p != "unsafe" {
						want = append(want, p)
					}
				}
			}
		}
		slices.Sort(want)
		if err := l.listExports(slices.Compact(want)); err != nil {
			return nil, err
		}
	}
	file := stdExports.files[path]
	if file == "" {
		return nil, fmt.Errorf("lint: no export data for %s", path)
	}
	return os.Open(file)
}

// listExports records in stdExports the export data files of paths from
// one `go list -export` run in the module root; a path go list cannot build
// is recorded with no file. The caller holds stdExports.
func (l *loader) listExports(paths []string) error {
	args := []string{"list", "-e", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}
	for _, p := range paths {
		if !strings.HasPrefix(p, "-") {
			args = append(args, p)
		}
	}
	cmd := exec.Command(filepath.Join(build.Default.GOROOT, "bin", "go"), args...)
	cmd.Dir = l.root
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("lint: go list -export: %w", err)
	}
	for _, p := range paths {
		stdExports.files[p] = ""
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok {
			stdExports.files[path] = file
		}
	}
	return nil
}

// parse parses one directory as a package with the given import path and
// registers it with the load. Returns (nil, nil) when the directory holds
// no buildable Go files.
func (l *loader) parse(dir, importPath string) (*Package, error) {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		if _, ok := err.(*build.NoGoError); ok {
			return nil, nil
		}
		return nil, err
	}
	pkg := &Package{Dir: dir, ImportPath: importPath, Fset: l.fset, load: l}
	add := func(names []string, test bool) error {
		for _, name := range names {
			path := filepath.Join(dir, name)
			f, err := parser.ParseFile(l.fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			pkg.Files = append(pkg.Files, &File{Name: path, AST: f, Test: test})
		}
		return nil
	}
	if err := add(bp.GoFiles, false); err != nil {
		return nil, err
	}
	if err := add(bp.TestGoFiles, true); err != nil {
		return nil, err
	}
	if err := add(bp.XTestGoFiles, true); err != nil {
		return nil, err
	}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// check type-checks pkg's non-test files once, importing what they import
// first. Type errors are recorded on the package and fail the load unless
// the package lives under a testdata directory.
func (l *loader) check(pkg *Package) error {
	if pkg.Info == nil {
		pkg.Info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		var files []*ast.File
		for _, f := range pkg.SourceFiles() {
			files = append(files, f.AST)
		}
		conf := types.Config{
			Importer: l,
			Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err.(types.Error)) },
		}
		pkg.Types, _ = conf.Check(pkg.ImportPath, l.fset, files, pkg.Info)
	}
	if len(pkg.TypeErrors) == 0 {
		return nil
	}
	if rel, err := filepath.Rel(l.root, pkg.Dir); err == nil && slices.Contains(strings.Split(filepath.ToSlash(rel), "/"), "testdata") {
		return nil
	}
	return fmt.Errorf("lint: %s does not type-check: %v", pkg.ImportPath, pkg.TypeErrors[0])
}

// Import implements types.Importer for the load.
func (l *loader) Import(path string) (*types.Package, error) {
	if !l.inModule(path) {
		return l.std.Import(path)
	}
	pkg := l.pkgs[path]
	if pkg == nil {
		dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.mod)))
		p, err := l.parse(dir, path)
		if err != nil {
			return nil, err
		}
		if p == nil {
			return nil, fmt.Errorf("lint: no Go files for %s in %s", path, dir)
		}
		pkg = p
	}
	if pkg.Info != nil && pkg.Types == nil {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	if err := l.check(pkg); err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

// Run applies every analyzer to every package — per-package Analyzers
// package by package, ModuleAnalyzers once over a Module index of the whole
// set — drops diagnostics silenced by reptile-lint:allow directives, audits
// the directives themselves (missing reasons, directives that suppressed
// nothing, under the analyzer name "allow"), and returns the rest in
// file/line order.
func Run(pkgs []*Package, analyzers []Analyzer) []Diagnostic {
	mod := NewModule(pkgs)
	allows := make(map[*Package]*pkgAllows, len(pkgs))
	for _, pkg := range pkgs {
		allows[pkg] = allowDirectives(pkg)
	}

	var diags []Diagnostic
	filter := func(pkg *Package, name string, found []Diagnostic) {
		pa := allows[pkg]
		for _, d := range found {
			if dir := pa.byLine[allowKey{d.Pos.Filename, d.Pos.Line, name}]; dir != nil {
				dir.used = true
				continue
			}
			diags = append(diags, d)
		}
	}

	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if _, isModule := a.(ModuleAnalyzer); isModule {
				continue
			}
			var found []Diagnostic
			a.Check(pkg, &Reporter{pkg: pkg, analyzer: a.Name(), diags: &found})
			filter(pkg, a.Name(), found)
		}
	}
	for _, a := range analyzers {
		ma, isModule := a.(ModuleAnalyzer)
		if !isModule {
			continue
		}
		found := map[*Package]*[]Diagnostic{}
		ma.CheckModule(mod, func(pkg *Package) *Reporter {
			lst := found[pkg]
			if lst == nil {
				lst = new([]Diagnostic)
				found[pkg] = lst
			}
			return &Reporter{pkg: pkg, analyzer: a.Name(), diags: lst}
		})
		for _, pkg := range pkgs {
			if lst := found[pkg]; lst != nil {
				filter(pkg, a.Name(), *lst)
			}
		}
	}

	// Audit the directives for the analyzers that actually ran: an allow
	// with no reason is undocumented debt, and one that suppressed nothing
	// is stale. Audit findings cannot themselves be allowed away. A
	// directive for a path-scoped analyzer is left alone in packages that
	// analyzer never looked at — it is dormant there, not stale.
	active := map[string]Analyzer{}
	for _, a := range analyzers {
		active[a.Name()] = a
	}
	for _, pkg := range pkgs {
		for _, dir := range allows[pkg].list {
			a, ok := active[dir.analyzer]
			if !ok {
				continue
			}
			if ps, scoped := a.(pathScoped); scoped && !ps.appliesTo(pkg) {
				continue
			}
			if dir.reason == "" {
				diags = append(diags, Diagnostic{
					Pos:      dir.pos,
					Analyzer: "allow",
					Message:  fmt.Sprintf("reptile-lint:allow %s has no reason; say why the finding is acceptable", dir.analyzer),
				})
			}
			if !dir.used {
				diags = append(diags, Diagnostic{
					Pos:      dir.pos,
					Analyzer: "allow",
					Message:  fmt.Sprintf("reptile-lint:allow %s suppresses nothing; remove the stale directive", dir.analyzer),
				})
			}
		}
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

type allowKey struct {
	file     string
	line     int
	analyzer string
}

// allowDirective is one parsed reptile-lint:allow comment.
type allowDirective struct {
	analyzer string
	reason   string
	pos      token.Position
	used     bool // suppressed at least one diagnostic this Run
}

// pkgAllows indexes one package's allow directives: byLine for suppression
// lookup (a directive covers its own line and the next), list in source
// order for the audit.
type pkgAllows struct {
	byLine map[allowKey]*allowDirective
	list   []*allowDirective
}

var allowRe = regexp.MustCompile(`^reptile-lint:allow\s+([\w-]+)[ \t]*([^\n]*)`)

// commentText strips the comment markers so directives can be matched
// anchored: a directive must open the comment, which keeps prose that merely
// mentions "reptile-lint:allow foo" (analyzer docs, diagnostics text) from
// parsing as a live suppression.
func commentText(c *ast.Comment) string {
	t := c.Text
	switch {
	case strings.HasPrefix(t, "//"):
		t = t[2:]
	case strings.HasPrefix(t, "/*"):
		t = strings.TrimSuffix(t[2:], "*/")
	}
	return strings.TrimSpace(t)
}

// allowDirectives parses every reptile-lint:allow comment: a directive
// silences its analyzer on the comment's own line and on the next line, so
// it can ride at the end of the offending statement or just above it.
func allowDirectives(pkg *Package) *pkgAllows {
	out := &pkgAllows{byLine: map[allowKey]*allowDirective{}}
	for _, f := range pkg.Files {
		for _, cg := range f.AST.Comments {
			for _, c := range cg.List {
				m := allowRe.FindStringSubmatch(commentText(c))
				if m == nil {
					continue
				}
				reason := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(m[2]), "*/"))
				dir := &allowDirective{
					analyzer: m[1],
					reason:   reason,
					pos:      pkg.Fset.Position(c.Pos()),
				}
				out.list = append(out.list, dir)
				pos := pkg.Fset.Position(c.Pos())
				out.byLine[allowKey{f.Name, pos.Line, m[1]}] = dir
				out.byLine[allowKey{f.Name, pos.Line + 1, m[1]}] = dir
			}
		}
	}
	return out
}

// pathScoped is implemented by analyzers that restrict themselves to a
// subset of import paths; the allow audit consults it so a directive in a
// package the analyzer skipped is not reported as stale.
type pathScoped interface {
	appliesTo(pkg *Package) bool
}

// pathMatches reports whether imp matches any substring filter; an empty
// filter list matches everything.
func pathMatches(imp string, filters []string) bool {
	if len(filters) == 0 {
		return true
	}
	for _, f := range filters {
		if strings.Contains(imp, f) {
			return true
		}
	}
	return false
}

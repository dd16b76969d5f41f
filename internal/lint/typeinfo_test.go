package lint

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The module the typed-Module tests load. Calls holds one call per row of
// wantCalls, each on a receiver typed a different way; target is the
// def-use subject, and its package carries the checker's "declared and not
// used" errors on purpose, which is why the module sits under testdata/.
const (
	tableSrcA = `package a

import "example.com/m/testdata/b"

type Inner struct{ N int }

func (Inner) Val() int { return 0 }

type Outer struct {
	In    Inner
	Ptr   *Inner
	Items []Inner
	Rem   b.Remote
	Peer  b.Pinger
}

func NewOuter() *Outer { return &Outer{} }

func (o *Outer) Get() Inner { return o.In }

func helper() {}

func mayFail() error { return nil }

func pair() (int, error) { return 0, nil }

func (o *Outer) Calls(seed Inner) {
	o.Get()
	b.Make()
	o.Rem.Ping()
	helper()
	println("not ours")
	seed.Val()
	in := o.In
	in.Val()
	p := o.Ptr
	p.Val()
	first := o.Items[0]
	first.Val()
	rem := o.Rem
	rem.Ping()
	made := b.Make()
	made.Ping()
	built := Inner{N: 1}
	built.Val()
	addr := &Outer{}
	addr.Get()
	var typed b.Remote
	typed.Ping()
	conv := Inner(built)
	conv.Val()
	copied := seed
	copied.Val()
	NewOuter().Get()
	o.Peer.Ping()
	mayFail()
	pair()
}
`
	tableSrcB = `package b

type Remote struct{ X int }

func (r Remote) Ping() error { return nil }

func Make() Remote { return Remote{} }

type Pinger interface{ Ping() error }
`
	tableSrcC = `package c

func fail() error { return nil }

func twoVals() (int, error) { return 0, nil }

func target(a int, b error) (n int, err error) {
	x := 1
	y := x + a
	_ = y
	werr := fail()
	if werr != nil {
		n = 2
	}
	z := 3
	z = 4
	unused := fail()
	v, verr := twoVals()
	use(v)
	captured := 0
	go func() { captured++ }()
	for i := 0; i < a; i++ {
		n += i
	}
	return n, err
}

func use(int) {}
`
)

// loadTableModule writes the table module to a temporary directory and
// loads it through the same loader the CLI uses.
func loadTableModule(t *testing.T) (*Module, map[string]*Package) {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"go.mod":          "module example.com/m\n\ngo 1.22\n",
		"testdata/a/a.go": tableSrcA,
		"testdata/b/b.go": tableSrcB,
		"testdata/c/c.go": tableSrcC,
	}
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := Load(root, []string{"./testdata/..."})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*Package{}
	for _, pkg := range pkgs {
		byName[filepath.Base(pkg.Dir)] = pkg
	}
	return NewModule(pkgs), byName
}

// callRow is what the typed Module answers about one call: the callee as
// diagnostics name it ("" for builtins and conversions), whether
// resolveCall reaches a body hotpath can follow, callReturnsError, and the
// callee's declared result count.
type callRow struct {
	label   string
	body    bool
	errs    bool
	results int
}

// wantCalls is the call table: one row per call in Outer.Calls, in source
// order, keyed by the call's source text.
var wantCalls = []struct {
	src string
	callRow
}{
	{"o.Get()", callRow{"a.Outer.Get", true, false, 1}},
	{"b.Make()", callRow{"b.Make", true, false, 1}},
	{"o.Rem.Ping()", callRow{"b.Remote.Ping", true, true, 1}},
	{"helper()", callRow{"a.helper", true, false, 0}},
	{`println("not ours")`, callRow{"", false, false, 0}},
	{"seed.Val()", callRow{"a.Inner.Val", true, false, 1}},
	{"in.Val()", callRow{"a.Inner.Val", true, false, 1}},
	{"p.Val()", callRow{"a.Inner.Val", true, false, 1}},
	{"first.Val()", callRow{"a.Inner.Val", true, false, 1}},
	{"rem.Ping()", callRow{"b.Remote.Ping", true, true, 1}},
	{"b.Make()", callRow{"b.Make", true, false, 1}},
	{"made.Ping()", callRow{"b.Remote.Ping", true, true, 1}},
	{"built.Val()", callRow{"a.Inner.Val", true, false, 1}},
	{"addr.Get()", callRow{"a.Outer.Get", true, false, 1}},
	{"typed.Ping()", callRow{"b.Remote.Ping", true, true, 1}},
	{"Inner(built)", callRow{"", false, false, 0}},
	{"conv.Val()", callRow{"a.Inner.Val", true, false, 1}},
	{"copied.Val()", callRow{"a.Inner.Val", true, false, 1}},
	{"NewOuter().Get()", callRow{"a.Outer.Get", true, false, 1}},
	{"NewOuter()", callRow{"a.NewOuter", true, false, 1}},
	{"o.Peer.Ping()", callRow{"b.Pinger.Ping", false, true, 1}}, // typed, not followed
	{"mayFail()", callRow{"a.mayFail", true, true, 1}},
	{"pair()", callRow{"a.pair", true, true, 2}},
}

// calledIn loads the table module and returns package a, the body of
// Outer.Calls, and the Module's answers for each call in it, in source
// order. It fails the test unless the calls line up with wantCalls.
func calledIn(t *testing.T) (*Package, *ast.FuncDecl, []callRow) {
	t.Helper()
	m, pkgs := loadTableModule(t)
	a := pkgs["a"]
	for _, name := range []string{"a", "b"} {
		if errs := pkgs[name].TypeErrors; len(errs) != 0 {
			t.Fatalf("package %s does not type-check: %v", name, errs)
		}
	}
	var fn *ast.FuncDecl
	for _, f := range a.SourceFiles() {
		for _, decl := range f.AST.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == "Calls" {
				fn = fd
			}
		}
	}
	if fn == nil {
		t.Fatal("Outer.Calls not found")
	}
	var got []callRow
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		c, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if i := len(got); i < len(wantCalls) && render(a.Fset, c) != wantCalls[i].src {
			t.Fatalf("call %d is %s, want %s", i, render(a.Fset, c), wantCalls[i].src)
		}
		var r callRow
		if f := callee(a.Info, c); m.declared(f) {
			r.label = funcString(f)
			r.results = f.Type().(*types.Signature).Results().Len()
		}
		r.body = m.resolveCall(a, c) != nil
		r.errs = m.callReturnsError(a, c)
		got = append(got, r)
		return true
	})
	if len(got) != len(wantCalls) {
		t.Fatalf("found %d calls, want %d", len(got), len(wantCalls))
	}
	return a, fn, got
}

// shortType prints a type with package names, not paths: "*a.Inner".
func shortType(typ types.Type) string {
	return types.TypeString(typ, func(p *types.Package) string { return p.Name() })
}

// TestEnvOfInfersLocalTypes checks the type the loader gives each
// parameter and local of Outer.Calls, however it was bound: from a field,
// a pointer field, a slice element, a call result, a composite literal,
// &T{}, a var declaration, a conversion, or another local.
func TestEnvOfInfersLocalTypes(t *testing.T) {
	a, fn, _ := calledIn(t)
	want := map[string]string{
		"o":      "*a.Outer",
		"seed":   "a.Inner",
		"in":     "a.Inner",
		"p":      "*a.Inner",
		"first":  "a.Inner",
		"rem":    "b.Remote",
		"made":   "b.Remote",
		"built":  "a.Inner",
		"addr":   "*a.Outer",
		"typed":  "b.Remote",
		"conv":   "a.Inner",
		"copied": "a.Inner",
	}
	got := map[string]string{}
	ast.Inspect(fn, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := a.Info.Defs[id].(*types.Var); ok {
				got[id.Name] = shortType(v.Type())
			}
		}
		return true
	})
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: typed %q, want %q", name, got[name], w)
		}
	}
}

// TestResolveCall checks every call of Outer.Calls resolves to its callee
// label, and that resolveCall finds a body exactly for module functions
// and concrete methods: builtins, conversions and the interface method
// o.Peer.Ping have none.
func TestResolveCall(t *testing.T) {
	_, _, got := calledIn(t)
	for i, w := range wantCalls {
		if got[i].label != w.label {
			t.Errorf("%s: resolved to %q, want %q", w.src, got[i].label, w.label)
		}
		if got[i].body != w.body {
			t.Errorf("%s: resolveCall found a body = %v, want %v", w.src, got[i].body, w.body)
		}
	}
}

// TestFuncSignatureIndex checks the signature facts errorflow reads for
// every call of Outer.Calls: whether it returns an error (interface
// methods by their declared signature) and how many results it has.
func TestFuncSignatureIndex(t *testing.T) {
	_, _, got := calledIn(t)
	for i, w := range wantCalls {
		if got[i].errs != w.errs {
			t.Errorf("%s: callReturnsError = %v, want %v", w.src, got[i].errs, w.errs)
		}
		if got[i].results != w.results {
			t.Errorf("%s: %d results, want %d", w.src, got[i].results, w.results)
		}
	}
}

// TestQualRefOfStructFields checks the type of each Outer field Calls
// selects — a value, a pointer, a slice, another package's struct and
// interface — and that a call through the field reaches the field type's
// method.
func TestQualRefOfStructFields(t *testing.T) {
	a, fn, got := calledIn(t)
	want := map[string]string{
		"In":    "a.Inner",
		"Ptr":   "*a.Inner",
		"Items": "[]a.Inner",
		"Rem":   "b.Remote",
		"Peer":  "b.Pinger",
	}
	fields := map[string]string{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if s := a.Info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				fields[sel.Sel.Name] = shortType(s.Type())
			}
		}
		return true
	})
	for name, w := range want {
		if fields[name] != w {
			t.Errorf("field %s: typed %q, want %q", name, fields[name], w)
		}
	}
	// The calls whose receiver is one of these fields, or a local bound
	// straight from one.
	through := map[string]string{
		"o.Rem.Ping()":  "b.Remote.Ping",
		"in.Val()":      "a.Inner.Val",
		"p.Val()":       "a.Inner.Val",
		"first.Val()":   "a.Inner.Val",
		"rem.Ping()":    "b.Remote.Ping",
		"o.Peer.Ping()": "b.Pinger.Ping",
	}
	for i, w := range wantCalls {
		if label, ok := through[w.src]; ok && got[i].label != label {
			t.Errorf("%s: resolved to %q, want %q", w.src, got[i].label, label)
		}
	}
}

// TestModuleTable pins the per-variable def-use tallies errorflow judges,
// computed over the typed Module.
func TestModuleTable(t *testing.T) {
	m, pkgs := loadTableModule(t)
	t.Run("defuse", func(t *testing.T) {
		c := pkgs["c"]
		// The unread variables are exactly what the checker rejects.
		var unused []string
		for _, e := range c.TypeErrors {
			unused = append(unused, strings.TrimPrefix(e.Msg, "declared and not used: "))
		}
		if got := strings.Join(unused, ","); got != "z,unused,verr" {
			t.Errorf("type errors name %q, want the unread z,unused,verr", got)
		}
		var fn *ast.FuncDecl
		for _, f := range c.SourceFiles() {
			for _, decl := range f.AST.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == "target" {
					fn = fd
				}
			}
		}
		if fn == nil {
			t.Fatal("target not found")
		}
		byName := map[string]*varUse{}
		for _, u := range m.defUses(c, fn) {
			byName[u.name] = u
		}
		tests := []struct {
			name      string
			param     bool
			writes    int
			reads     int
			errValued bool
		}{
			{"x", false, 1, 1, false},
			{"y", false, 1, 1, false},
			{"werr", false, 1, 1, true},
			{"z", false, 2, 0, false},
			{"unused", false, 1, 0, true},
			{"v", false, 1, 1, false},
			{"verr", false, 1, 0, true},
			{"captured", false, 1, 1, false},
			{"i", false, 1, 3, false},
			{"a", true, 0, 2, false},
			{"n", true, 2, 1, false},
			{"err", true, 0, 1, false},
		}
		for _, tc := range tests {
			u := byName[tc.name]
			if u == nil {
				t.Errorf("%s: no use record", tc.name)
				continue
			}
			if u.param != tc.param || u.writes != tc.writes || u.reads != tc.reads || u.errValued != tc.errValued {
				t.Errorf("%s: got (param=%v writes=%d reads=%d err=%v), want (param=%v writes=%d reads=%d err=%v)",
					tc.name, u.param, u.writes, u.reads, u.errValued,
					tc.param, tc.writes, tc.reads, tc.errValued)
			}
		}
		if u := byName["b"]; u != nil {
			t.Errorf("b is never mentioned in the body; unexpected record %+v", u)
		}
	})
}

package lint

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// LockGuard enforces the "// guarded by <mu>" annotation convention: a
// struct field carrying that comment may only be read or written inside a
// function that locks the named mutex on the same owner value (an explicit
// <owner>.<mu>.Lock() or .RLock() call in the body), or whose doc comment
// carries a "reptile-lint:holds <mu>" directive declaring that its callers
// already hold the lock.
//
// Selector chains resolve through the type checker to the field they
// select, so e.mbox.depth is recognized as an access to mailbox.depth
// guarded by e.mbox.mu, and a same-named field on an unrelated type is
// never mistaken for it. A chain rooted at a local the function allocated
// itself (x := &T{...}, T{...}, or new(T)) is exempt: that value is under
// construction, and no other goroutine holds it until the function hands
// it over. Test files are exempt too: tests routinely inspect state after
// goroutines are joined, where the happens-before edge comes from the
// join, not the mutex.
type LockGuard struct{}

// NewLockGuard returns the analyzer with default configuration.
func NewLockGuard() *LockGuard { return &LockGuard{} }

// Name implements Analyzer.
func (*LockGuard) Name() string { return "lockguard" }

// Doc implements Analyzer.
func (*LockGuard) Doc() string {
	return "flags accesses to '// guarded by <mu>' fields outside functions that lock <mu>"
}

var (
	guardedByRe = regexp.MustCompile(`guarded by (\w+)`)
	holdsRe     = regexp.MustCompile(`reptile-lint:holds\s+(\w+)`)
)

// Check implements Analyzer.
func (lg *LockGuard) Check(pkg *Package, r *Reporter) {
	// Validate annotations, test files included: the named mutex must be a
	// sibling field.
	eachStruct(pkg.Files, func(_ *ast.TypeSpec, st *ast.StructType) {
		names := map[string]bool{}
		for _, fld := range st.Fields.List {
			for _, n := range fld.Names {
				names[n.Name] = true
			}
		}
		for _, fld := range st.Fields.List {
			if mu, ok := annotation(fld, guardedByRe); ok && !names[mu] {
				for _, n := range fld.Names {
					r.Reportf(n.Pos(), "field %s is 'guarded by %s' but the struct has no field %s", n.Name, mu, mu)
				}
			}
		}
	})

	guarded := annotatedFields(pkg, guardedByRe)
	if len(guarded) == 0 {
		return
	}
	for _, f := range pkg.SourceFiles() {
		for _, decl := range f.AST.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				lg.checkFunc(pkg, guarded, fn, r)
			}
		}
	}
}

// checkFunc verifies every guarded-field access in one function.
func (lg *LockGuard) checkFunc(pkg *Package, guarded map[*types.Var]fieldNote, fn *ast.FuncDecl, r *Reporter) {
	holds := map[string]bool{}
	if fn.Doc != nil {
		for _, m := range holdsRe.FindAllStringSubmatch(fn.Doc.Text(), -1) {
			holds[m[1]] = true
		}
	}

	// Pass 1: collect the set of mutexes this function locks, as rendered
	// "owner.mu" strings from <owner>.<mu>.Lock() / .RLock() calls.
	locked := map[string]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		locked[render(pkg.Fset, sel.X)] = true
		return true
	})

	// Pass 2: flag guarded-field accesses with no matching lock in scope.
	fresh := freshLocals(pkg.Info, fn.Body)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		g, ok := guarded[fieldOf(pkg.Info, sel)]
		if !ok || holds[g.arg] || fresh[pkg.Info.ObjectOf(chainRoot(sel))] {
			return true
		}
		guardExpr := render(pkg.Fset, sel.X) + "." + g.arg
		if locked[guardExpr] {
			return true
		}
		r.Reportf(sel.Sel.Pos(),
			"%s.%s is guarded by %s, but %s neither locks it nor declares reptile-lint:holds %s",
			g.owner, sel.Sel.Name, guardExpr, funcLabel(pkg, fn), g.arg)
		return true
	})
}

// freshLocals collects the locals a function body binds with := to a value
// it allocates itself.
func freshLocals(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && info.Defs[id] != nil && allocates(info, as.Rhs[i]) {
				out[info.Defs[id]] = true
			}
		}
		return true
	})
	return out
}

// allocates reports whether e is a fresh allocation: T{...}, &T{...}, or
// new(T).
func allocates(info *types.Info, e ast.Expr) bool {
	switch t := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		_, lit := t.X.(*ast.CompositeLit)
		return lit && t.Op == token.AND
	case *ast.CallExpr:
		id, _ := t.Fun.(*ast.Ident)
		b, _ := info.Uses[id].(*types.Builtin)
		return b != nil && b.Name() == "new"
	}
	return false
}

// chainRoot returns the identifier a selector chain (a.b[i].c) starts at,
// or nil when it starts at a call or another expression.
func chainRoot(e ast.Expr) *ast.Ident {
	for {
		switch t := e.(type) {
		case *ast.Ident:
			return t
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		default:
			return nil
		}
	}
}

// fieldNote is one annotated struct field: the declaring struct's name and
// the annotation's argument (the mutex of a "guarded by"; "" when the
// annotation takes none).
type fieldNote struct {
	owner string
	arg   string
}

// annotatedFields maps every field of a package-level struct in pkg's
// source files whose doc or line comment matches re to its note, keyed by
// the field's types object so any selector that reaches it finds it.
func annotatedFields(pkg *Package, re *regexp.Regexp) map[*types.Var]fieldNote {
	out := map[*types.Var]fieldNote{}
	eachStruct(pkg.SourceFiles(), func(ts *ast.TypeSpec, st *ast.StructType) {
		for _, fld := range st.Fields.List {
			arg, ok := annotation(fld, re)
			if !ok {
				continue
			}
			for _, n := range fld.Names {
				if v, ok := pkg.Info.Defs[n].(*types.Var); ok {
					out[v] = fieldNote{owner: ts.Name.Name, arg: arg}
				}
			}
		}
	})
	return out
}

// eachStruct calls visit for every package-level struct type declared in
// files.
func eachStruct(files []*File, visit func(*ast.TypeSpec, *ast.StructType)) {
	for _, f := range files {
		for _, decl := range f.AST.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok {
					if st, ok := ts.Type.(*ast.StructType); ok {
						visit(ts, st)
					}
				}
			}
		}
	}
}

// annotation reports whether a field's doc or line comment matches re,
// with re's first submatch when it has one.
func annotation(fld *ast.Field, re *regexp.Regexp) (string, bool) {
	for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
		if cg == nil {
			continue
		}
		if m := re.FindStringSubmatch(cg.Text()); m != nil {
			if len(m) > 1 {
				return m[1], true
			}
			return "", true
		}
	}
	return "", false
}

// fieldOf returns the struct field a selector expression selects, or nil
// when it selects a method or a package member.
func fieldOf(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		v, _ := info.Uses[sel.Sel].(*types.Var)
		return v
	}
	return nil
}

// render prints an expression back to source form for guard matching.
func render(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return ""
	}
	return buf.String()
}

// funcLabel names a function for diagnostics ("method mailbox.take" or
// "function CloseGroup").
func funcLabel(pkg *Package, fn *ast.FuncDecl) string {
	if f, ok := pkg.Info.Defs[fn.Name].(*types.Func); ok {
		if recv := recvName(f); recv != "" {
			return "method " + recv + "." + fn.Name.Name
		}
	}
	return "function " + fn.Name.Name
}

// funcNameOf returns the called function's terminal name ("Send" for
// e.Send(...), "encodeReq" for encodeReq(...)), or "" when unnameable.
// Shared by the wireproto and goroutine-hygiene analyzers.
func funcNameOf(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

// hasPrefixFold reports whether s starts with prefix, ASCII case-insensitive
// on the first rune (encodeReq and EncodeEntries both count as encoders).
func hasPrefixFold(s, prefix string) bool {
	return strings.HasPrefix(strings.ToLower(s), strings.ToLower(prefix))
}

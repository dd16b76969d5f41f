package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// HotPath flags per-iteration heap allocations inside declared hot paths.
// A function opts in with `// reptile-lint:hotpath` on its doc comment; the
// analyzer then checks it and everything it provably calls within the
// module (transitively, via the Module call graph) for work a tight loop
// should not repeat: composite literals behind & or of slice/map shape,
// make/new, string<->[]byte conversions, closures built per iteration,
// append growth from zero capacity, fmt calls, and interface boxing at
// module-local call sites.
//
// The check is loop-relative: the same allocation outside a loop passes,
// because a once-per-call allocation is a different (and usually fine)
// cost class than a once-per-base one. Escape analysis is approximated,
// not computed — see DESIGN.md §13 for the soundness limits.
type HotPath struct{}

// NewHotPath returns the analyzer with default configuration.
func NewHotPath() *HotPath { return &HotPath{} }

// Name implements Analyzer.
func (hp *HotPath) Name() string { return "hotpath" }

// Doc implements Analyzer.
func (hp *HotPath) Doc() string {
	return "per-iteration heap allocations in reptile-lint:hotpath functions and their module-local callees"
}

// Check implements Analyzer; all work happens module-wide in CheckModule.
func (hp *HotPath) Check(pkg *Package, r *Reporter) {}

var hotpathRe = regexp.MustCompile(`reptile-lint:hotpath\b`)

// CheckModule implements ModuleAnalyzer: seed the worklist with every
// annotated function, then breadth-first over resolvable module-local
// callees, analyzing each function exactly once under its first root.
func (hp *HotPath) CheckModule(m *Module, report func(*Package) *Reporter) {
	type item struct {
		fi   *FuncInfo
		root string // "" when the function itself carries the annotation
	}
	var queue []item
	seen := map[*FuncInfo]bool{}
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.SourceFiles() {
			for _, decl := range f.AST.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Doc == nil || !hotpathRe.MatchString(fd.Doc.Text()) {
					continue
				}
				if fi := m.FuncOf(pkg, fd); fi != nil && !seen[fi] {
					seen[fi] = true
					queue = append(queue, item{fi: fi})
				}
			}
		}
	}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if it.fi.Decl.Body == nil {
			continue
		}
		root := it.root
		if root == "" {
			root = it.fi.String()
		}
		for _, next := range hp.analyze(m, it.fi, it.root, report(it.fi.Pkg)) {
			if !seen[next] {
				seen[next] = true
				queue = append(queue, item{fi: next, root: root})
			}
		}
	}
}

// analyze scans one function for per-iteration allocations and returns its
// resolvable module-local callees for the worklist.
func (hp *HotPath) analyze(m *Module, fi *FuncInfo, root string, r *Reporter) []*FuncInfo {
	pkg, fn := fi.Pkg, fi.Decl
	zeroCap := zeroCapSlices(pkg.Info, fn.Body)
	suffix := ""
	if root != "" {
		suffix = fmt.Sprintf(" (on the hot path of %s)", root)
	}

	// Closures handed straight to go/defer are launch bodies, not
	// per-iteration garbage: a loop spawning one goroutine per worker is the
	// fan-out idiom, so only the literal's body is held to the loop rules.
	launched := map[*ast.FuncLit]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		var call *ast.CallExpr
		switch t := n.(type) {
		case *ast.GoStmt:
			call = t.Call
		case *ast.DeferStmt:
			call = t.Call
		default:
			return true
		}
		if lit, ok := call.Fun.(*ast.FuncLit); ok {
			launched[lit] = true
		}
		return true
	})

	var callees []*FuncInfo
	addCallee := func(call *ast.CallExpr) {
		if fi2 := m.resolveCall(pkg, call); fi2 != nil {
			callees = append(callees, fi2)
		}
	}

	var scan func(n ast.Node, inLoop bool)
	scan = func(n ast.Node, inLoop bool) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(c ast.Node) bool {
			if c == nil {
				return true
			}
			if c == n {
				switch c.(type) {
				case *ast.ForStmt, *ast.RangeStmt, *ast.FuncLit:
					return true // dispatched below only when met as children
				}
			}
			switch t := c.(type) {
			case *ast.ForStmt:
				scan(t.Init, inLoop)
				scan(t.Cond, true)
				scan(t.Post, true)
				scan(t.Body, true)
				return false
			case *ast.RangeStmt:
				scan(t.X, inLoop)
				scan(t.Body, true)
				return false
			case *ast.FuncLit:
				if inLoop && !launched[t] {
					r.Reportf(t.Pos(), "func literal in a loop allocates a closure every iteration; hoist it out of the loop%s", suffix)
				}
				scan(t.Body, false)
				return false
			case *ast.UnaryExpr:
				if t.Op == token.AND && inLoop {
					if lit, ok := t.X.(*ast.CompositeLit); ok {
						r.Reportf(t.Pos(), "&%s literal allocates every loop iteration; hoist or reuse it%s", typeLabel(pkg, lit.Type), suffix)
					}
				}
			case *ast.CompositeLit:
				if !inLoop {
					break
				}
				switch tt := t.Type.(type) {
				case *ast.ArrayType:
					if tt.Len == nil {
						r.Reportf(t.Pos(), "%s literal allocates a slice every loop iteration; hoist or reuse it%s", typeLabel(pkg, t.Type), suffix)
					}
				case *ast.MapType:
					r.Reportf(t.Pos(), "%s literal allocates a map every loop iteration; hoist or reuse it%s", typeLabel(pkg, t.Type), suffix)
				}
			case *ast.AssignStmt:
				if inLoop {
					hp.checkAppend(pkg.Info, zeroCap, t, r, suffix)
				}
			case *ast.CallExpr:
				addCallee(t)
				if inLoop {
					hp.checkCall(m, pkg, t, r, suffix)
				}
			}
			return true
		})
	}
	scan(fn.Body, false)
	return callees
}

// checkCall flags allocation-carrying calls inside a loop.
func (hp *HotPath) checkCall(m *Module, pkg *Package, call *ast.CallExpr, r *Reporter, suffix string) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch fun.Name {
		case "make":
			r.Reportf(call.Pos(), "make in a loop allocates every iteration; hoist the buffer out of the loop%s", suffix)
			return
		case "new":
			r.Reportf(call.Pos(), "new in a loop allocates every iteration; hoist the allocation out of the loop%s", suffix)
			return
		case "string":
			if len(call.Args) == 1 && !isBasicLit(call.Args[0]) {
				r.Reportf(call.Pos(), "string conversion in a loop copies and allocates every iteration%s", suffix)
				return
			}
		}
	case *ast.ArrayType:
		if elt, ok := fun.Elt.(*ast.Ident); ok && fun.Len == nil && elt.Name == "byte" && len(call.Args) == 1 {
			r.Reportf(call.Pos(), "[]byte conversion in a loop copies and allocates every iteration%s", suffix)
			return
		}
	}
	if f := callee(pkg.Info, call); f != nil && f.Pkg() != nil && f.Pkg().Path() == "fmt" && recvName(f) == "" {
		r.Reportf(call.Pos(), "fmt.%s in a loop boxes its arguments and allocates; move it off the hot path%s", f.Name(), suffix)
		return
	}
	fi2 := m.resolveCall(pkg, call)
	if fi2 == nil {
		return
	}
	sig := fi2.Func.Type().(*types.Signature)
	for i, arg := range call.Args {
		if !boxesArg(sig, i, call.Ellipsis.IsValid()) || pkg.Info.Types[arg].IsNil() {
			continue
		}
		r.Reportf(arg.Pos(), "call to %s boxes this argument into an interface parameter every iteration; keep hot-loop calls monomorphic%s", fi2.String(), suffix)
		return
	}
}

// boxesArg reports whether argument i of a call to sig lands in an empty
// interface parameter (any, interface{}), folding the variadic tail unless
// the call spreads a slice into it.
func boxesArg(sig *types.Signature, i int, spread bool) bool {
	params := sig.Params()
	if params.Len() == 0 {
		return false
	}
	var t types.Type
	switch {
	case sig.Variadic() && i >= params.Len()-1:
		if spread {
			return false
		}
		t = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
	case i < params.Len():
		t = params.At(i).Type()
	default:
		return false
	}
	iface, ok := t.Underlying().(*types.Interface)
	return ok && iface.Empty()
}

// checkAppend flags `x = append(x, ...)` in a loop when x was provably
// declared without capacity, so every iteration risks a growth copy.
func (hp *HotPath) checkAppend(info *types.Info, zeroCap map[types.Object]bool, as *ast.AssignStmt, r *Reporter, suffix string) {
	if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
		return
	}
	for i := 0; i < len(as.Lhs) && i < len(as.Rhs); i++ {
		call, ok := as.Rhs[i].(*ast.CallExpr)
		if !ok {
			continue
		}
		fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || fun.Name != "append" || len(call.Args) == 0 {
			continue
		}
		lhs, ok := as.Lhs[i].(*ast.Ident)
		if !ok {
			continue
		}
		arg, ok := call.Args[0].(*ast.Ident)
		if !ok || info.ObjectOf(arg) != info.ObjectOf(lhs) {
			continue
		}
		if zeroCap[info.ObjectOf(arg)] {
			r.Reportf(as.Pos(), "append to %s grows from zero capacity every iteration; preallocate with make before the loop%s", lhs.Name, suffix)
		}
	}
}

// zeroCapSlices collects the variables a function body declares as slices
// with no storage behind them: `var x []T` or `x := []T{}`. Anything else —
// a parameter, a make with capacity, an unresolved expression — stays out,
// so the append check only fires on provable zero-capacity growth.
func zeroCapSlices(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.ValueSpec:
			at, _ := d.Type.(*ast.ArrayType)
			for i, id := range d.Names {
				bare := len(d.Values) == 0 && at != nil && at.Len == nil
				if obj := info.Defs[id]; obj != nil && (bare || i < len(d.Values) && isEmptySliceLit(d.Values[i])) {
					out[obj] = true
				}
			}
		case *ast.AssignStmt:
			if d.Tok != token.DEFINE || len(d.Lhs) != len(d.Rhs) {
				return true
			}
			for i, lhs := range d.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && info.Defs[id] != nil && isEmptySliceLit(d.Rhs[i]) {
					out[info.Defs[id]] = true
				}
			}
		}
		return true
	})
	return out
}

// isEmptySliceLit matches `[]T{}`.
func isEmptySliceLit(e ast.Expr) bool {
	lit, ok := ast.Unparen(e).(*ast.CompositeLit)
	if !ok || len(lit.Elts) != 0 {
		return false
	}
	at, ok := lit.Type.(*ast.ArrayType)
	return ok && at.Len == nil
}

// isBasicLit reports whether e is a literal constant (string("x") and
// friends allocate nothing new per iteration worth flagging).
func isBasicLit(e ast.Expr) bool {
	_, ok := ast.Unparen(e).(*ast.BasicLit)
	return ok
}

// typeLabel renders a composite literal's type for a diagnostic; untyped
// nested literals render as "composite".
func typeLabel(pkg *Package, t ast.Expr) string {
	if t == nil {
		return "composite"
	}
	return render(pkg.Fset, t)
}

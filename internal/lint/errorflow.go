package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrorFlow enforces that errors cannot silently die in the packages where
// an error is a protocol event: any package that declares or imports a
// declarer of msgplane.ProtocolError / core.AbortError. On those paths a
// produced error must reach a return, a poison/abort/fail call, or an
// explicit `reptile-lint:allow errorflow <reason>`; the analyzer flags the
// three ways one leaks instead — a call statement whose error result is
// dropped, a `_ =` discard, and an err variable (including a shadowing
// redeclaration) that is written but never read on any path.
type ErrorFlow struct{}

// NewErrorFlow returns the analyzer with default configuration.
func NewErrorFlow() *ErrorFlow { return &ErrorFlow{} }

// Name implements Analyzer.
func (ef *ErrorFlow) Name() string { return "errorflow" }

// Doc implements Analyzer.
func (ef *ErrorFlow) Doc() string {
	return "dropped, discarded, or shadowed errors in packages carrying ProtocolError/AbortError"
}

// Check implements Analyzer; all work happens module-wide in CheckModule.
func (ef *ErrorFlow) Check(pkg *Package, r *Reporter) {}

// poisonFuncs are callee names whose whole purpose is to consume an error
// (abort the run, poison a dispatcher); calling one as a bare statement is
// the sanctioned terminal use, not a drop.
var poisonFuncs = map[string]bool{
	"fail": true, "Fail": true,
	"abort": true, "Abort": true,
	"poison": true, "Poison": true,
}

// CheckModule implements ModuleAnalyzer.
func (ef *ErrorFlow) CheckModule(m *Module, report func(*Package) *Reporter) {
	for _, pkg := range m.Pkgs {
		if !ef.active(pkg) {
			continue
		}
		r := report(pkg)
		for _, f := range pkg.SourceFiles() {
			for _, decl := range f.AST.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					ef.checkFunc(m, pkg, fd, r)
				}
			}
		}
	}
}

// active reports whether pkg is on a typed-error path: it declares a
// sentinel type or imports a package that does.
func (ef *ErrorFlow) active(pkg *Package) bool {
	for _, p := range append([]*types.Package{pkg.Types}, pkg.Types.Imports()...) {
		for _, name := range []string{"ProtocolError", "AbortError"} {
			if _, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				return true
			}
		}
	}
	return false
}

// checkFunc applies the three leak checks to one function body.
func (ef *ErrorFlow) checkFunc(m *Module, pkg *Package, fn *ast.FuncDecl, r *Reporter) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.ExprStmt:
			call, ok := t.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			f := callee(pkg.Info, call)
			if !m.declared(f) || !returnsError(f) || poisonFuncs[f.Name()] {
				return true
			}
			r.Reportf(call.Pos(), "call to %s drops its error result; handle it, return it, or mark reptile-lint:allow errorflow", funcString(f))
		case *ast.AssignStmt:
			ef.checkDiscards(m, pkg, t, r)
		}
		return true
	})

	for _, u := range m.defUses(pkg, fn) {
		if u.param || u.writes == 0 || u.reads > 0 {
			continue
		}
		if !u.errValued && !errName(u.name) {
			continue
		}
		r.Reportf(u.pos, "%s is assigned an error that is never checked on any path (dropped or shadowed); return it, poison the run, or mark reptile-lint:allow errorflow", u.name)
	}
}

// checkDiscards flags `_ =` discards of error values in one assignment.
func (ef *ErrorFlow) checkDiscards(m *Module, pkg *Package, as *ast.AssignStmt, r *Reporter) {
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		// v, _ := f(): the trailing result of a single call.
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !m.callReturnsError(pkg, call) {
			return
		}
		last, ok := as.Lhs[len(as.Lhs)-1].(*ast.Ident)
		if ok && last.Name == "_" {
			r.Reportf(last.Pos(), "the error result of %s is discarded with _; handle it or mark reptile-lint:allow errorflow", callLabel(m, pkg, call))
		}
		return
	}
	for i := 0; i < len(as.Lhs) && i < len(as.Rhs); i++ {
		id, ok := as.Lhs[i].(*ast.Ident)
		if !ok || id.Name != "_" {
			continue
		}
		switch rhs := as.Rhs[i].(type) {
		case *ast.CallExpr:
			if m.callReturnsError(pkg, rhs) {
				r.Reportf(id.Pos(), "the error result of %s is discarded with _; handle it or mark reptile-lint:allow errorflow", callLabel(m, pkg, rhs))
			}
		case *ast.Ident:
			if errName(rhs.Name) {
				r.Reportf(id.Pos(), "error %s is discarded with _; handle it or mark reptile-lint:allow errorflow", rhs.Name)
			}
		}
	}
}

// callLabel names a call for a diagnostic: the resolved function when the
// module declares it, the printed callee otherwise.
func callLabel(m *Module, pkg *Package, call *ast.CallExpr) string {
	if f := callee(pkg.Info, call); m.declared(f) {
		return funcString(f)
	}
	return render(pkg.Fset, call.Fun)
}

// errName matches the project's error-variable naming: err, werr, sendErr...
func errName(name string) bool {
	return name == "err" || strings.HasSuffix(name, "err") || strings.HasSuffix(name, "Err")
}

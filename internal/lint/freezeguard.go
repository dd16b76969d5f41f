package lint

import (
	"go/ast"
	"go/types"
	"regexp"
)

// FreezeGuard enforces the "// frozen: <why>" annotation convention for
// spectrum stores that are packed at a freeze point and immutable afterwards:
// a struct field carrying that comment may only be assigned, or have a store
// mutator (Add/Set/Delete/Clear/Prune/Release) invoked on it, inside a
// function whose doc comment carries a "reptile-lint:build" directive — the
// declared build/freeze phase that owns the store's lifecycle. Reads are
// always allowed; immutable shared reads are the point of freezing.
//
// Like lockguard, selector chains resolve through the type checker to the
// annotated field (the frozen field's own type may live in another
// package), and test files are exempt: tests construct frozen stores
// directly to probe edge cases.
type FreezeGuard struct{}

// NewFreezeGuard returns the analyzer with default configuration.
func NewFreezeGuard() *FreezeGuard { return &FreezeGuard{} }

// Name implements Analyzer.
func (*FreezeGuard) Name() string { return "freezeguard" }

// Doc implements Analyzer.
func (*FreezeGuard) Doc() string {
	return "flags writes to '// frozen:' fields outside functions marked reptile-lint:build"
}

var (
	frozenRe     = regexp.MustCompile(`\bfrozen:`)
	buildPhaseRe = regexp.MustCompile(`reptile-lint:build\b`)
)

// storeMutators are the spectrum store methods that modify entries or
// release the backing storage.
var storeMutators = map[string]bool{
	"Add": true, "Set": true, "Delete": true,
	"Clear": true, "Prune": true, "Release": true,
}

// Check implements Analyzer.
func (fg *FreezeGuard) Check(pkg *Package, r *Reporter) {
	frozen := annotatedFields(pkg, frozenRe)
	if len(frozen) == 0 {
		return
	}
	for _, f := range pkg.SourceFiles() {
		for _, decl := range f.AST.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if fn.Doc != nil && buildPhaseRe.MatchString(fn.Doc.Text()) {
				continue // the declared build phase owns the lifecycle
			}
			fg.checkFunc(pkg, frozen, fn, r)
		}
	}
}

// checkFunc flags frozen-field writes in one non-build function.
func (fg *FreezeGuard) checkFunc(pkg *Package, frozen map[*types.Var]fieldNote, fn *ast.FuncDecl, r *Reporter) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range t.Lhs {
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if note, ok := frozen[fieldOf(pkg.Info, sel)]; ok {
					r.Reportf(sel.Sel.Pos(),
						"%s.%s is frozen, but %s assigns it without a reptile-lint:build directive",
						note.owner, sel.Sel.Name, funcLabel(pkg, fn))
				}
			}
		case *ast.CallExpr:
			method, ok := t.Fun.(*ast.SelectorExpr)
			if !ok || !storeMutators[method.Sel.Name] {
				return true
			}
			sel, ok := method.X.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if note, ok := frozen[fieldOf(pkg.Info, sel)]; ok {
				r.Reportf(method.Sel.Pos(),
					"%s.%s is frozen, but %s calls %s on it without a reptile-lint:build directive",
					note.owner, sel.Sel.Name, funcLabel(pkg, fn), method.Sel.Name)
			}
		}
		return true
	})
}

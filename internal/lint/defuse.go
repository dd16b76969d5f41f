package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Def-use over one function body, keyed by the types.Object every
// identifier denotes (Info.Defs at a declaration, Info.Uses at every other
// mention): the checker's scoping tells a shadowing inner `err` from a reuse
// of the outer one.

// varUse aggregates the def-use facts for one function-local variable.
type varUse struct {
	name      string
	pos       token.Pos // declaring identifier's position
	param     bool      // receiver, parameter, or named result
	writes    int       // assignments, including the declaration
	reads     int       // every other mention, at any nesting depth
	errValued bool      // some write stores the error result of a call
}

// defUses walks one function and groups every identifier by declaration.
// Mentions inside nested func literals count: a variable read only by a
// closure is still read.
func (m *Module) defUses(pkg *Package, fn *ast.FuncDecl) map[types.Object]*varUse {
	if fn.Body == nil {
		return nil
	}
	info := pkg.Info
	uses := map[types.Object]*varUse{}
	params := map[types.Object]bool{}
	for _, fl := range []*ast.FieldList{fn.Recv, fn.Type.Params, fn.Type.Results} {
		if fl == nil {
			continue
		}
		for _, fld := range fl.List {
			for _, n := range fld.Names {
				if obj := info.Defs[n]; obj != nil {
					params[obj] = true
				}
			}
		}
	}

	// Pass 1: classify which identifier nodes are writes, and which writes
	// carry an error value.
	writes := map[*ast.Ident]bool{}
	errWrites := map[*ast.Ident]bool{}
	markWrite := func(e ast.Expr, errValued bool) {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			writes[id] = true
			if errValued {
				errWrites[id] = true
			}
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.AssignStmt:
			if len(t.Rhs) == 1 && len(t.Lhs) > 1 {
				// a, b := f(): only the position matching an error result is
				// error-valued; without a resolved callee, assume the last.
				call, isCall := t.Rhs[0].(*ast.CallExpr)
				errValued := isCall && m.callReturnsError(pkg, call)
				for i, lhs := range t.Lhs {
					markWrite(lhs, errValued && i == len(t.Lhs)-1)
				}
				return true
			}
			for i, lhs := range t.Lhs {
				errValued := false
				if i < len(t.Rhs) {
					if call, ok := t.Rhs[i].(*ast.CallExpr); ok {
						errValued = m.callReturnsError(pkg, call)
					}
				}
				markWrite(lhs, errValued)
			}
		case *ast.ValueSpec:
			for i, id := range t.Names {
				errValued := false
				if i < len(t.Values) {
					if call, ok := t.Values[i].(*ast.CallExpr); ok {
						errValued = m.callReturnsError(pkg, call)
					}
				}
				markWrite(id, errValued)
			}
		case *ast.RangeStmt:
			markWrite(t.Key, false)
			markWrite(t.Value, false)
		case *ast.IncDecStmt:
			// x++ both reads and writes; leave the mention a read so the
			// variable never looks write-only.
		}
		return true
	})

	// Pass 2: tally every mention against the variable it denotes,
	// restricted to variables declared inside this function (parameters
	// included).
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		v, ok := info.ObjectOf(id).(*types.Var)
		if !ok || v.IsField() || v.Pkg() != pkg.Types || v.Pos() < fn.Pos() || v.Pos() >= fn.End() {
			return true
		}
		u := uses[v]
		if u == nil {
			u = &varUse{name: id.Name, pos: v.Pos(), param: params[v]}
			uses[v] = u
		}
		if writes[id] {
			u.writes++
			if errWrites[id] {
				u.errValued = true
			}
		} else {
			u.reads++
		}
		return true
	})
	return uses
}

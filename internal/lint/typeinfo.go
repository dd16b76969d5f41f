package lint

import (
	"go/ast"
	"go/types"
	"path"
	"strings"
)

// This file is the type-aware half of the lint framework. Every loaded
// package carries its go/types view (Package.Types, Package.Info); Module
// adds the one index the module-wide analyzers need on top of it — every
// function declaration by its *types.Func, so a resolved call leads back to
// a body — and the call and signature queries hotpath, errorflow, and
// msgorder share.

// FuncInfo is one function or method declaration somewhere in the module.
type FuncInfo struct {
	Pkg  *Package
	Decl *ast.FuncDecl
	Func *types.Func
}

// String renders pkg.Recv.Name or pkg.Name, the label diagnostics use.
func (fi *FuncInfo) String() string { return funcString(fi.Func) }

// funcString renders a function as pkg.Recv.Name or pkg.Name; a method
// declared in an interface is labelled with the interface.
func funcString(f *types.Func) string {
	base := path.Base(f.Pkg().Path())
	if recv := recvName(f); recv != "" {
		return base + "." + recv + "." + f.Name()
	}
	return base + "." + f.Name()
}

// recvName names the type a method is declared on, "" for a plain function.
func recvName(f *types.Func) string {
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return typeName(t)
}

// typeName is the bare name of a named type ("Conn" for transport.Conn,
// "List" for List[T]), "" for any other type.
func typeName(t types.Type) string {
	if _, ok := t.(*types.Named); !ok {
		return ""
	}
	s := types.TypeString(t, func(*types.Package) string { return "" })
	if i := strings.IndexByte(s, '['); i >= 0 {
		s = s[:i]
	}
	return s
}

// Module is the loaded package set seen at once by the module-wide
// analyzers. Pkgs are the packages under analysis; the index spans every
// module package their loads type-checked from source (the module packages
// Pkgs import included), so a verdict on a package does not depend on
// which other packages the patterns named.
type Module struct {
	Pkgs  []*Package
	local map[*types.Package]*Package
	funcs map[*types.Func]*FuncInfo
}

// NewModule indexes the loaded packages.
func NewModule(pkgs []*Package) *Module {
	m := &Module{
		Pkgs:  pkgs,
		local: map[*types.Package]*Package{},
		funcs: map[*types.Func]*FuncInfo{},
	}
	for _, p := range pkgs {
		for _, dep := range p.load.pkgs {
			m.local[dep.Types] = dep
		}
	}
	for _, pkg := range m.local {
		for _, f := range pkg.SourceFiles() {
			for _, decl := range f.AST.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					m.funcs[obj] = &FuncInfo{Pkg: pkg, Decl: fd, Func: obj}
				}
			}
		}
	}
	return m
}

// FuncOf returns the FuncInfo of a declaration in pkg, or nil.
func (m *Module) FuncOf(pkg *Package, fd *ast.FuncDecl) *FuncInfo {
	obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	return m.funcs[obj]
}

// callee returns the function or method a call names statically — a method
// called through an interface included — or nil for builtins, conversions,
// and calls of function values.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch g := fun.(type) { // an explicit instantiation f[T](...)
	case *ast.IndexExpr:
		fun = g.X
	case *ast.IndexListExpr:
		fun = g.X
	}
	var id *ast.Ident
	switch f := ast.Unparen(fun).(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	if fn == nil {
		return nil
	}
	return fn.Origin()
}

// resolveCall returns the module declaration a call statically reaches, or
// nil: interface dispatch, function values, builtins, and callees outside
// the module have no body to follow.
func (m *Module) resolveCall(pkg *Package, call *ast.CallExpr) *FuncInfo {
	return m.funcs[callee(pkg.Info, call)]
}

// declared reports whether f is declared in a module package of the load:
// a function or method with a body, or a method of a module interface.
func (m *Module) declared(f *types.Func) bool {
	return f != nil && f.Pkg() != nil && m.local[f.Pkg()] != nil
}

var errorType = types.Universe.Lookup("error").Type()

// returnsError reports whether f's last declared result is the builtin
// error type.
func returnsError(f *types.Func) bool {
	res := f.Type().(*types.Signature).Results()
	return res.Len() > 0 && types.Identical(res.At(res.Len()-1).Type(), errorType)
}

// callReturnsError reports whether a call's last result is an error:
// module functions and methods (interface methods included) by their
// declared signature, plus the universal constructors errors.New /
// errors.Join / fmt.Errorf.
func (m *Module) callReturnsError(pkg *Package, call *ast.CallExpr) bool {
	f := callee(pkg.Info, call)
	switch {
	case f == nil || f.Pkg() == nil:
		return false
	case m.declared(f):
		return returnsError(f)
	}
	switch f.Pkg().Path() + "." + f.Name() {
	case "errors.New", "errors.Join", "fmt.Errorf":
		return true
	}
	return false
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MsgOrder checks the message plane's registration discipline module-wide:
// every tag constant referenced by a Send/Recv/Handle call must be covered
// by a Spec registered during init (directly or one call deep), Direct tags
// must never be claimed by a Router handler while router-owned tags must
// never be taken with a blocking direct Recv, and a package registering
// request specs must register the matching response specs (the Caller's
// window has nothing to match otherwise).
//
// A "tag" is a package-level constant whose type is a named type Tag
// declared in the module, and a "spec" is a composite literal of a
// named type Spec declared next to a Tag type. Tags passed through
// variables or computed expressions are outside the horizon and pass
// silently.
type MsgOrder struct{}

// NewMsgOrder returns the analyzer with default configuration.
func NewMsgOrder() *MsgOrder { return &MsgOrder{} }

// Name implements Analyzer.
func (mo *MsgOrder) Name() string { return "msgorder" }

// Doc implements Analyzer.
func (mo *MsgOrder) Doc() string {
	return "msgplane tags registered before use, Direct vs Router ownership, request/response spec pairing"
}

// Check implements Analyzer; all work happens module-wide in CheckModule.
func (mo *MsgOrder) Check(pkg *Package, r *Reporter) {}

// msgSpec is one Spec composite literal found in the module.
type msgSpec struct {
	tag    *types.Const
	dir    string // terminal name of the Dir field value; "" when absent
	direct bool
	atInit bool // registered from init, directly or one call deep
	pkg    *Package
	pos    token.Pos
}

// msgUse is one Send/Recv/Handle call referencing a tag constant.
type msgUse struct {
	kind string // "Send" | "Recv" | "Handle"
	tag  *types.Const
	pkg  *Package
	pos  token.Pos
}

// CheckModule implements ModuleAnalyzer.
func (mo *MsgOrder) CheckModule(m *Module, report func(*Package) *Reporter) {
	tags := mo.collectTagConsts(m)
	specs := mo.collectSpecs(m, tags)
	uses := mo.collectUses(m, tags)

	registered := map[*types.Const]*msgSpec{}
	anySpec := map[*types.Const]*msgSpec{}
	for _, s := range specs {
		if s.atInit && registered[s.tag] == nil {
			registered[s.tag] = s
		}
		if anySpec[s.tag] == nil {
			anySpec[s.tag] = s
		}
	}

	for _, u := range uses {
		r := report(u.pkg)
		spec := registered[u.tag]
		if spec == nil {
			if late := anySpec[u.tag]; late != nil {
				r.Reportf(u.pos, "tag %s is registered only outside init; %s may run before the registry knows it", u.tag.Name(), u.kind)
			} else {
				r.Reportf(u.pos, "tag %s is used by %s but never registered with the tag registry", u.tag.Name(), u.kind)
			}
			continue
		}
		switch u.kind {
		case "Handle":
			if spec.direct {
				r.Reportf(u.pos, "Direct tag %s must not get a Router handler; Direct frames bypass the router demux", u.tag.Name())
			}
		case "Recv":
			if !spec.direct {
				r.Reportf(u.pos, "tag %s is router-owned (not Direct) but taken with a blocking Recv; only the router may demux it", u.tag.Name())
			}
		}
	}

	// Request/response pairing, per tag-declaring package: a Caller window
	// matches responses to requests, so registering one side without the
	// other leaves the window unmatchable.
	byPkg := map[*types.Package][]*msgSpec{}
	for _, s := range specs {
		if s.atInit {
			byPkg[s.tag.Pkg()] = append(byPkg[s.tag.Pkg()], s)
		}
	}
	for _, group := range byPkg {
		var nReq, nResp int
		for _, s := range group {
			switch s.dir {
			case "DirRequest":
				nReq++
			case "DirResponse":
				nResp++
			}
		}
		for _, s := range group {
			if s.dir == "DirRequest" && nResp == 0 {
				report(s.pkg).Reportf(s.pos, "registers request tag %s with no response tag in %s; the caller window has nothing to match", s.tag.Name(), s.tag.Pkg().Path())
			}
			if s.dir == "DirResponse" && nReq == 0 {
				report(s.pkg).Reportf(s.pos, "registers response tag %s with no request tag in %s; nothing can await it", s.tag.Name(), s.tag.Pkg().Path())
			}
		}
	}
}

// collectTagConsts indexes every package-level constant of a Tag type.
func (mo *MsgOrder) collectTagConsts(m *Module) map[*types.Const]bool {
	tags := map[*types.Const]bool{}
	for _, pkg := range m.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if c, ok := scope.Lookup(name).(*types.Const); ok && m.namedType(c.Type(), "Tag") != nil {
				tags[c] = true
			}
		}
	}
	return tags
}

// namedType returns the type name t denotes when t is a named type called
// name declared in the module, nil otherwise.
func (m *Module) namedType(t types.Type, name string) *types.TypeName {
	if typeName(t) != name {
		return nil
	}
	for tp := range m.local {
		if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok && types.Identical(tn.Type(), t) {
			return tn
		}
	}
	return nil
}

// isSpec reports whether a composite literal's type is a Spec whose
// declaring package also declares Tag — the signature of a message-plane
// spec table, as opposed to unrelated Spec types.
func (mo *MsgOrder) isSpec(m *Module, pkg *Package, lit *ast.CompositeLit) bool {
	tn := m.namedType(pkg.Info.TypeOf(lit), "Spec")
	if tn == nil {
		return false
	}
	_, ok := tn.Pkg().Scope().Lookup("Tag").(*types.TypeName)
	return ok
}

// collectSpecs finds every Spec composite literal and whether it is
// registered during init: inside a Register* call in an init function or
// in a function an init calls directly.
func (mo *MsgOrder) collectSpecs(m *Module, tags map[*types.Const]bool) []*msgSpec {
	var specs []*msgSpec
	for _, pkg := range m.Pkgs {
		// Functions reachable from init in one step.
		initCalled := map[types.Object]bool{}
		for _, f := range pkg.SourceFiles() {
			for _, decl := range f.AST.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv != nil || fd.Name.Name != "init" || fd.Body == nil {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
							initCalled[pkg.Info.Uses[id]] = true
						}
					}
					return true
				})
			}
		}
		for _, f := range pkg.SourceFiles() {
			for _, decl := range f.AST.Decls {
				fd, isFunc := decl.(*ast.FuncDecl)
				atInit := isFunc && fd.Recv == nil && (fd.Name.Name == "init" || initCalled[pkg.Info.Defs[fd.Name]])
				ast.Inspect(decl, func(n ast.Node) bool {
					lit, ok := n.(*ast.CompositeLit)
					if !ok || !mo.isSpec(m, pkg, lit) {
						return true
					}
					if s := mo.parseSpec(pkg, lit, tags); s != nil {
						s.atInit = atInit
						specs = append(specs, s)
					}
					return true
				})
			}
		}
	}
	return specs
}

// parseSpec extracts the Tag, Dir, and Direct fields from a keyed Spec
// literal; nil when the Tag field is not a known tag constant.
func (mo *MsgOrder) parseSpec(pkg *Package, lit *ast.CompositeLit, tags map[*types.Const]bool) *msgSpec {
	s := &msgSpec{pkg: pkg, pos: lit.Pos()}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			return nil // positional spec literal: outside the horizon
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		switch key.Name {
		case "Tag":
			if s.tag = mo.tagOf(pkg, kv.Value, tags); s.tag == nil {
				return nil
			}
		case "Dir":
			switch v := ast.Unparen(kv.Value).(type) {
			case *ast.Ident:
				s.dir = v.Name
			case *ast.SelectorExpr:
				s.dir = v.Sel.Name
			}
		case "Direct":
			if id, ok := ast.Unparen(kv.Value).(*ast.Ident); ok && id.Name == "true" {
				s.direct = true
			}
		}
	}
	if s.tag == nil {
		return nil
	}
	return s
}

// tagOf resolves an expression to a known tag constant, or nil.
func (mo *MsgOrder) tagOf(pkg *Package, e ast.Expr, tags map[*types.Const]bool) *types.Const {
	var id *ast.Ident
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = v
	case *ast.SelectorExpr:
		id = v.Sel
	default:
		return nil
	}
	if c, ok := pkg.Info.Uses[id].(*types.Const); ok && tags[c] {
		return c
	}
	return nil
}

// collectUses finds every Send/Recv/Handle call whose direct arguments
// include a known tag constant.
func (mo *MsgOrder) collectUses(m *Module, tags map[*types.Const]bool) []*msgUse {
	var uses []*msgUse
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.SourceFiles() {
			for _, decl := range f.AST.Decls {
				ast.Inspect(decl, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					name := funcNameOf(call)
					if name != "Send" && name != "Recv" && name != "Handle" {
						return true
					}
					for _, arg := range call.Args {
						if c := mo.tagOf(pkg, arg, tags); c != nil {
							uses = append(uses, &msgUse{kind: name, tag: c, pkg: pkg, pos: arg.Pos()})
						}
					}
					return true
				})
			}
		}
	}
	return uses
}

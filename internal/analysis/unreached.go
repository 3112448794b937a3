package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// unreachedRule reports production code that no program runs: every
// function with a body that the call graph does not reach from a root.
// Code with test callers only is unreached too — a test of code the
// simulator never runs proves nothing about the simulator — so the fix is
// to delete it, or to port its tests to the production API. A deliberate
// test-side entry point is justified with //bbvet:allow unreached, the
// same directive every rule uses, so stale-directive audits it.
//
// The roots are main and init functions; functions referenced from a
// package-level var initializer (a workload table reaches its entries only
// through the variable, which the graph does not model); and methods of
// module types that implement an interface declared outside the module
// (error, fmt.Stringer, sort.Interface, http.Handler, …), which the
// standard library calls from bodies the graph does not contain.
//
// A suppressed function is a root too, so the helpers below a justified
// entry point need no directives of their own. A directive on a function
// that another suppressed function reaches, without being reached back,
// suppresses nothing and is left for stale-directive to report.
func unreachedRule() Rule {
	return Rule{
		Name: "unreached",
		Doc: "report functions that no main, init, package-level var initializer or " +
			"stdlib-interface method reaches through the call graph; code with test callers " +
			"only is dead code — delete it or justify a test-side entry point",
		RunModule: func(mp *ModulePass) {
			g := mp.Graph
			pos := func(n *CGNode) token.Position { return n.Pkg.Fset.Position(n.Decl.Name.Pos()) }
			reached := g.reach(map[*types.Func]bool{}, unreachedRoots(mp)...)

			var allowed []*CGNode
			var below []map[*types.Func]bool // what each allowed function reaches
			for _, n := range g.Nodes() {
				if !reached[n.Fn] && mp.directives.allowFor(pos(n), "unreached") != nil {
					allowed = append(allowed, n)
					below = append(below, g.reach(map[*types.Func]bool{}, callees(n)...))
				}
			}
		entries:
			for i, n := range allowed {
				for j, other := range allowed {
					if i != j && below[j][n.Fn] && !below[i][other.Fn] {
						continue entries
					}
				}
				mp.directives.allows(pos(n), "unreached")
				g.reach(reached, n.Fn)
			}

			for _, n := range g.Nodes() {
				if !reached[n.Fn] {
					mp.Reportf(pos(n), "unreached",
						"%s is reached from no main, init, package-level var or stdlib-interface method; "+
							"delete it, or justify a test-side entry point with //bbvet:allow unreached",
						FuncDisplayName(n.Fn))
				}
			}
		},
	}
}

// reach adds to seen every function reachable from fns, and returns seen.
func (g *CallGraph) reach(seen map[*types.Func]bool, fns ...*types.Func) map[*types.Func]bool {
	for len(fns) > 0 {
		fn := fns[len(fns)-1]
		fns = fns[:len(fns)-1]
		if seen[fn] {
			continue
		}
		seen[fn] = true
		if n := g.Node(fn); n != nil {
			fns = append(fns, callees(n)...)
		}
	}
	return seen
}

// callees lists the functions n calls or references.
func callees(n *CGNode) []*types.Func {
	fns := make([]*types.Func, len(n.Out))
	for i, e := range n.Out {
		fns[i] = e.To
	}
	return fns
}

// unreachedRoots returns the mains, inits, functions named in package-level
// var initializers, and methods implementing a stdlib interface.
func unreachedRoots(mp *ModulePass) []*types.Func {
	var roots []*types.Func
	external := externalInterfaces(mp.Pkgs)
	for _, n := range mp.Graph.Nodes() {
		recv := n.Fn.Type().(*types.Signature).Recv()
		name := n.Fn.Name()
		if recv == nil && (name == "init" || name == "main" && n.Fn.Pkg().Name() == "main") ||
			recv != nil && implementsExternal(recv.Type(), name, external) {
			roots = append(roots, n.Fn)
		}
	}
	for _, pkg := range mp.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					ast.Inspect(gd, func(node ast.Node) bool {
						if id, ok := node.(*ast.Ident); ok {
							if fn, ok := pkg.Info.Uses[id].(*types.Func); ok && mp.Graph.Node(fn) != nil {
								roots = append(roots, fn)
							}
						}
						return true
					})
				}
			}
		}
	}
	return roots
}

// externalInterfaces indexes by method name the exported interfaces that
// the packages the module imports, directly or not, declare — plus error.
func externalInterfaces(pkgs []*Package) map[string][]*types.Interface {
	byMethod := make(map[string][]*types.Interface)
	addIface := func(obj types.Object) {
		iface, ok := obj.Type().Underlying().(*types.Interface)
		if !ok || !obj.Exported() && obj.Pkg() != nil { // error is the universe's
			return
		}
		for i := 0; i < iface.NumMethods(); i++ {
			m := iface.Method(i).Name()
			byMethod[m] = append(byMethod[m], iface)
		}
	}
	addIface(types.Universe.Lookup("error"))
	seen := make(map[*types.Package]bool)
	for _, pkg := range pkgs {
		seen[pkg.Pkg] = true // module packages declare no external interface
	}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		for _, imp := range p.Imports() {
			if !seen[imp] {
				seen[imp] = true
				for _, name := range imp.Scope().Names() {
					if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok {
						addIface(tn)
					}
				}
				visit(imp)
			}
		}
	}
	for _, pkg := range pkgs {
		visit(pkg.Pkg)
	}
	return byMethod
}

// implementsExternal reports whether recv's named type, or a pointer to it,
// implements an external interface that declares method.
func implementsExternal(recv types.Type, method string, external map[string][]*types.Interface) bool {
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	for _, iface := range external[method] {
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			return true
		}
	}
	return false
}

package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"sort"
	"strings"
)

// This file builds the module-wide call graph the interprocedural rules
// run on. Nodes are the functions and methods declared with a body in the
// analyzed (non-test) packages; edges are the statically resolvable calls
// between them, plus two over-approximations that keep the graph sound for
// reachability questions:
//
//   - a reference to a function outside call position (a function or
//     method value passed around, stored, or returned) adds a "ref" edge
//     from the referencing function, because the callee may run wherever
//     the value flows;
//   - a call through an interface method adds a "dispatch" edge to every
//     module method that could satisfy it — every named type implementing
//     the interface contributes its implementation.
//
// Calls into the standard library are not edges: the taint pass detects
// nondeterministic stdlib reads (time.Now, os.Getenv, …) directly at the
// call site inside the enclosing module function, so stdlib bodies never
// need to be traversed. Function values invoked through struct fields or
// plain variables stay unresolved (no edge) — the ref edge at the point
// the function value was created keeps reachability conservative.

// EdgeKind classifies how a call-graph edge was established.
type EdgeKind uint8

const (
	// EdgeCall is a statically resolved direct call.
	EdgeCall EdgeKind = iota
	// EdgeRef is a reference to a function outside call position: the
	// function escapes as a value and may be invoked by whoever holds it.
	EdgeRef
	// EdgeDispatch is an interface-method call resolved to one of the
	// possible concrete implementations (an over-approximation).
	EdgeDispatch
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeRef:
		return "ref"
	case EdgeDispatch:
		return "dispatch"
	default:
		return "call"
	}
}

// A CGEdge is one outgoing edge of a call-graph node.
type CGEdge struct {
	To   *types.Func
	Pos  token.Pos // call site / reference site in the caller
	Kind EdgeKind
}

// A CGNode is one function or method declared with a body in the module.
type CGNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	Out  []CGEdge // deduplicated by callee, in source order
}

// A CallGraph is the module-wide static call graph.
type CallGraph struct {
	nodes map[*types.Func]*CGNode
	order []*CGNode // deterministic: packages sorted by path, then source order
}

// Node returns the graph node for fn, or nil if fn has no body in the
// analyzed packages.
func (g *CallGraph) Node(fn *types.Func) *CGNode { return g.nodes[fn] }

// Nodes returns every node in deterministic order (package path, then
// source position).
func (g *CallGraph) Nodes() []*CGNode { return g.order }

// BuildCallGraph constructs the call graph over the given packages. The
// packages must come from one load (shared type-checker identity), as
// LoadModule guarantees; test packages are skipped.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{nodes: make(map[*types.Func]*CGNode)}
	// Pass 1: index every declared function and every named type (the
	// dispatch candidates).
	var named []*types.Named
	for _, pkg := range pkgs {
		if pkg.Test {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &CGNode{Fn: fn, Decl: fd, Pkg: pkg}
				g.nodes[fn] = node
				g.order = append(g.order, node)
			}
		}
		if pkg.Pkg != nil {
			scope := pkg.Pkg.Scope()
			for _, name := range scope.Names() { // Names() is sorted
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
					if n, ok := tn.Type().(*types.Named); ok && !types.IsInterface(n) {
						named = append(named, n)
					}
				}
			}
		}
	}
	// Pass 2: walk each body and record edges.
	b := &graphBuilder{graph: g, named: named, impls: make(map[implKey][]*types.Func)}
	for _, node := range g.order {
		b.walk(node)
	}
	return g
}

type implKey struct {
	iface  *types.Interface
	method string
}

type graphBuilder struct {
	graph *CallGraph
	named []*types.Named
	impls map[implKey][]*types.Func
}

// walk records the outgoing edges of one node. Function literals nested in
// the declaration belong to the declaring function: a call made inside a
// closure is an edge of the function that built the closure.
func (b *graphBuilder) walk(node *CGNode) {
	info := node.Pkg.Info
	seen := make(map[*types.Func]bool)
	// callOperands holds the expressions already consumed as the operator
	// of a call, so the second pass over bare identifiers does not turn
	// every direct call into an additional ref edge.
	callOperands := make(map[ast.Node]bool)
	add := func(to *types.Func, pos token.Pos, kind EdgeKind) {
		if to == nil {
			return
		}
		// A method of a generic type is called through an instantiation
		// (Slab[event].Alloc); the edge goes to the method as declared.
		if to = to.Origin(); seen[to] {
			return
		}
		if _, inModule := b.graph.nodes[to]; !inModule {
			return
		}
		seen[to] = true
		node.Out = append(node.Out, CGEdge{To: to, Pos: pos, Kind: kind})
	}
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fun := ast.Unparen(n.Fun)
			callOperands[fun] = true
			switch fun := fun.(type) {
			case *ast.Ident:
				if fn, ok := info.Uses[fun].(*types.Func); ok {
					add(fn, n.Pos(), EdgeCall)
				}
			case *ast.SelectorExpr:
				callOperands[fun.Sel] = true
				b.selectorEdges(node, info, fun, n.Pos(), EdgeCall, add)
			}
		case *ast.Ident:
			if callOperands[n] {
				return true
			}
			if fn, ok := info.Uses[n].(*types.Func); ok {
				add(fn, n.Pos(), EdgeRef)
			}
		case *ast.SelectorExpr:
			if callOperands[n] {
				// Already handled as a call operator; its .Sel is marked.
				return true
			}
			callOperands[n.Sel] = true
			b.selectorEdges(node, info, n, n.Pos(), EdgeRef, add)
			// Keep descending: n.X may itself contain calls (f(x).M).
		}
		return true
	})
}

// selectorEdges resolves x.M — a method call, method value, or qualified
// function reference — into one or more edges.
func (b *graphBuilder) selectorEdges(node *CGNode, info *types.Info, sel *ast.SelectorExpr,
	pos token.Pos, kind EdgeKind, add func(*types.Func, token.Pos, EdgeKind)) {
	if s := info.Selections[sel]; s != nil {
		fn, ok := s.Obj().(*types.Func)
		if !ok {
			return // field access; a func-typed field stays unresolved
		}
		if types.IsInterface(s.Recv()) {
			iface, _ := s.Recv().Underlying().(*types.Interface)
			if iface != nil {
				for _, impl := range b.implementations(iface, fn) {
					add(impl, pos, EdgeDispatch)
				}
			}
			return
		}
		add(fn, pos, kind)
		return
	}
	// Package-qualified reference (pkg.F) or type-qualified method
	// expression (T.M).
	if fn, ok := info.Uses[sel.Sel].(*types.Func); ok {
		add(fn, pos, kind)
	}
}

// implementations returns, in deterministic order, the module methods that
// an interface call to fn could dispatch to: for every named non-interface
// type implementing iface, the method with fn's name.
func (b *graphBuilder) implementations(iface *types.Interface, fn *types.Func) []*types.Func {
	key := implKey{iface, fn.Name()}
	if impls, ok := b.impls[key]; ok {
		return impls
	}
	var impls []*types.Func
	for _, n := range b.named {
		if !types.Implements(n, iface) && !types.Implements(types.NewPointer(n), iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(n, true, fn.Pkg(), fn.Name())
		if m, ok := obj.(*types.Func); ok {
			impls = append(impls, m)
		}
	}
	b.impls[key] = impls
	return impls
}

// FuncDisplayName renders fn compactly for findings and the graph dump:
// pkgbase.Name for functions, pkgbase.(*Recv).Name for methods.
func FuncDisplayName(fn *types.Func) string {
	name := fn.Name()
	base := ""
	if fn.Pkg() != nil {
		base = path.Base(fn.Pkg().Path()) + "."
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return base + name
	}
	recv := sig.Recv().Type()
	star := ""
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
		star = "*"
	}
	recvName := types.TypeString(recv, func(*types.Package) string { return "" })
	// Strip the generic type-parameter list if present.
	if i := strings.IndexByte(recvName, '['); i >= 0 {
		recvName = recvName[:i]
	}
	return fmt.Sprintf("%s(%s%s).%s", base, star, recvName, name)
}

// fullFuncName qualifies fn with its full import path, for the graph dump.
func fullFuncName(fn *types.Func) string {
	if fn.Pkg() == nil {
		return FuncDisplayName(fn)
	}
	dir := path.Dir(fn.Pkg().Path())
	if dir == "." {
		return FuncDisplayName(fn)
	}
	return dir + "/" + FuncDisplayName(fn)
}

// EdgeList renders every edge as "caller -> callee (kind)", sorted, for
// cmd/bbvet's -graph debugging dump. The list is a pure function of the
// loaded source, so repeated dumps are bit-identical.
func (g *CallGraph) EdgeList() []string {
	var lines []string
	for _, node := range g.order {
		from := fullFuncName(node.Fn)
		for _, e := range node.Out {
			lines = append(lines, fmt.Sprintf("%s -> %s (%s)", from, fullFuncName(e.To), e.Kind))
		}
	}
	sort.Strings(lines)
	return lines
}

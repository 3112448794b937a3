package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"strings"
)

// determinismTaintRule is the module-wide interprocedural pass: a
// simulated result must be a pure function of (workflow, platform,
// policy, seed), so nothing nondeterministic may be *reachable* from a
// simulation entry point — not just absent from the entry point's own
// package, which is all the syntactic per-package rules can see.
//
// Sources are direct reads of nondeterministic state inside a module
// function: the wall clock (time.Now & friends), the process-global
// math/rand stream, host state (os.Getenv, os.Hostname, runtime.NumCPU,
// runtime.GOMAXPROCS, …), and map iteration feeding an ordered collection
// in packages the ordered-map-iteration rule does not already police.
//
// Sinks are the simulation entry points and result emitters: exec.Run,
// the sim.Engine stepping methods, core.Simulator.Run, testbed runs, the
// experiments.Run* family, and metric/trace emission. The rule walks the
// call graph from each sink and reports every source it can reach, with
// the full call chain in the message, so a wall-clock read three calls
// deep inside a helper package is as visible as one in the kernel itself.
//
// Suppression: //bbvet:allow determinism-taint on the source line; map
// iteration sources also honor //bbvet:ordered, matching the per-package
// rule's vocabulary.

// hostStateOSFuncs are the os package functions that read per-process or
// per-host state a simulation result must not depend on.
var hostStateOSFuncs = map[string]bool{
	"Getenv": true, "LookupEnv": true, "Environ": true,
	"Hostname": true, "Getpid": true, "Getppid": true,
	"Getwd": true,
}

// hostStateRuntimeFuncs read machine shape; results depending on them
// change between hosts even with identical inputs and seeds.
var hostStateRuntimeFuncs = map[string]bool{
	"NumCPU": true, "GOMAXPROCS": true,
}

type taintSourceKind uint8

const (
	taintWalltime taintSourceKind = iota
	taintGlobalRand
	taintHostState
	taintMapIter
)

// A taintSource is one nondeterministic read inside a function body.
type taintSource struct {
	pos  token.Pos
	kind taintSourceKind
	what string // "reads time.Now", "reads host state via os.Getenv", …
}

// A sinkSpec names one simulation entry point: receiver type name (empty
// for package-level functions) plus function name; a trailing * matches a
// prefix (the experiments.Run* family).
type sinkSpec struct{ recv, name string }

// taintSinks lists the entry points per package base name. Base-name
// matching lets testdata fixture packages stand in for the real ones,
// exactly as the package-scoped rules do.
var taintSinks = map[string][]sinkSpec{
	"exec":    {{"", "Run"}},
	"core":    {{"Simulator", "Run"}},
	"testbed": {{"Runner", "Run"}},
	"sim":     {{"Engine", "Run"}, {"Engine", "RunUntil"}, {"Engine", "Step"}},
	"experiments": {
		{"", "Run*"},
	},
	"metrics": {
		{"Collector", "Add"}, {"Collector", "GaugeMax"},
		{"HeldHistogram", "Observe"}, {"Collector", "Snapshot"},
	},
	"trace": {
		{"Trace", "Record"}, {"Trace", "Save"}, {"Trace", "MarshalJSON"},
		// Streaming sinks run inside the event loop; anything nondeterministic
		// reachable from Emit would perturb simulated output timing.
		{"JSONLSink", "Emit"}, {"CSVSink", "Emit"},
	},
	// The scale generator's output feeds simulations directly; its bytes are
	// asserted bit-reproducible for a given spec.
	"workloads": {{"", "Scale"}},
	// The service evaluator is the cache-identity contract: everything a
	// daemon response's bytes depend on flows through Execute, so nothing
	// reachable from it may touch the wall clock, global rand, or host
	// state. The HTTP layer above it is free to read time (deadlines,
	// Retry-After); the taint BFS never reaches it because taint flows
	// from sinks into their callees.
	"service": {{"", "Execute"}, {"", "ExecuteCampaign"}},
	// The batch scheduler's campaigns are asserted bit-identical across
	// worker counts; its whole event-driven core is a sink.
	"sched": {{"", "Run"}},
}

// isTaintSink reports whether a node is a simulation entry point.
func isTaintSink(node *CGNode) bool {
	specs := taintSinks[path.Base(node.Pkg.Path)]
	if len(specs) == 0 {
		return false
	}
	name := node.Fn.Name()
	recv := receiverTypeName(node.Fn)
	for _, s := range specs {
		if s.recv != recv {
			continue
		}
		if want, prefix := strings.CutSuffix(s.name, "*"); prefix {
			if strings.HasPrefix(name, want) && ast.IsExported(name) {
				return true
			}
		} else if s.name == name {
			return true
		}
	}
	return false
}

// receiverTypeName returns the base type name of fn's receiver, or "".
func receiverTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

func determinismTaintRule() Rule {
	return Rule{
		Name: "determinism-taint",
		Doc: "interprocedural: forbid any call path from a simulation entry point (exec.Run, " +
			"engine stepping, experiments.Run*, metric/trace emission) to a nondeterminism " +
			"source (wall clock, global rand, host state, unordered map iteration); findings " +
			"carry the full call chain",
		RunModule: func(mp *ModulePass) {
			g := mp.Graph
			sources := make(map[*types.Func][]taintSource)
			for _, node := range g.Nodes() {
				if srcs := collectTaintSources(node); len(srcs) > 0 {
					sources[node.Fn] = srcs
				}
			}
			// One finding per source position: the first sink (in graph
			// order) that reaches a source claims it, so the output is a
			// deterministic function of the loaded source alone.
			reported := make(map[token.Position]bool)
			for _, sink := range g.Nodes() {
				if !isTaintSink(sink) {
					continue
				}
				taintBFS(mp, g, sink, sources, reported)
			}
		},
	}
}

// taintBFS walks the call graph breadth-first from one sink and reports
// every reachable source with its call chain. Breadth-first order means
// the reported chain is a shortest path; edge order within a node is
// source order, so ties break deterministically.
func taintBFS(mp *ModulePass, g *CallGraph, sink *CGNode,
	sources map[*types.Func][]taintSource, reported map[token.Position]bool) {
	parent := make(map[*types.Func]*types.Func)
	visited := map[*types.Func]bool{sink.Fn: true}
	queue := []*CGNode{sink}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, src := range sources[cur.Fn] {
			pos := cur.Pkg.Fset.Position(src.pos)
			if reported[pos] {
				continue
			}
			reported[pos] = true
			if src.kind == taintMapIter && mp.directives.ordered(pos) {
				continue
			}
			chain := taintChain(parent, sink.Fn, cur.Fn)
			if len(chain) == 1 {
				mp.Reportf(pos, "determinism-taint",
					"%s %s; a simulated result must be a pure function of (workflow, platform, "+
						"policy, seed)", FuncDisplayName(sink.Fn), src.what)
			} else {
				mp.Reportf(pos, "determinism-taint",
					"%s, which %s; a nondeterministic value can reach simulation output through "+
						"this call chain", strings.Join(chain, " calls "), src.what)
			}
		}
		for _, e := range cur.Out {
			next := g.Node(e.To)
			if next == nil || visited[e.To] {
				continue
			}
			visited[e.To] = true
			parent[e.To] = cur.Fn
			queue = append(queue, next)
		}
	}
}

// taintChain renders the sink→…→carrier path recorded by the BFS parent
// pointers, in display form.
func taintChain(parent map[*types.Func]*types.Func, sink, last *types.Func) []string {
	var rev []*types.Func
	for fn := last; ; fn = parent[fn] {
		rev = append(rev, fn)
		if fn == sink {
			break
		}
	}
	chain := make([]string, len(rev))
	for i, fn := range rev {
		chain[len(rev)-1-i] = FuncDisplayName(fn)
	}
	return chain
}

// collectTaintSources walks one function body for direct nondeterministic
// reads.
func collectTaintSources(node *CGNode) []taintSource {
	info := node.Pkg.Info
	var srcs []taintSource
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			id, ok := n.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkgName, ok := info.Uses[id].(*types.PkgName)
			if !ok {
				return true
			}
			name := n.Sel.Name
			switch pkgName.Imported().Path() {
			case "time":
				if walltimeFuncs[name] {
					srcs = append(srcs, taintSource{n.Pos(), taintWalltime, "reads time." + name})
				}
			case "math/rand", "math/rand/v2":
				if _, isFunc := info.Uses[n.Sel].(*types.Func); isFunc && !randConstructors[name] {
					srcs = append(srcs, taintSource{n.Pos(), taintGlobalRand,
						"draws from the process-global rand." + name})
				}
			case "os":
				if hostStateOSFuncs[name] {
					srcs = append(srcs, taintSource{n.Pos(), taintHostState,
						"reads host state via os." + name})
				}
			case "runtime":
				if hostStateRuntimeFuncs[name] {
					srcs = append(srcs, taintSource{n.Pos(), taintHostState,
						"reads host state via runtime." + name})
				}
			}
		case *ast.RangeStmt:
			if src, ok := mapIterSource(node, n); ok {
				srcs = append(srcs, src)
			}
		}
		return true
	})
	return srcs
}

// mapIterSource reports a map iteration that feeds an ordered collection:
// the loop appends to a slice declared outside the loop, and the slice is
// never sorted within the same function. Packages already policed by the
// ordered-map-iteration rule are excluded — there the per-package rule
// (with its stronger order-insensitivity prover) owns the hazard.
func mapIterSource(node *CGNode, rng *ast.RangeStmt) (taintSource, bool) {
	if isSimPackage(node.Pkg.Path) {
		return taintSource{}, false
	}
	info := node.Pkg.Info
	t := info.TypeOf(rng.X)
	if t == nil {
		return taintSource{}, false
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return taintSource{}, false
	}
	var appended *types.Var
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if appended != nil {
			return false
		}
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
			return true
		}
		call, ok := assign.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" ||
			info.Uses[id] != types.Universe.Lookup("append") {
			return true
		}
		lhs, ok := assign.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		v := bindingVarInfo(info, lhs)
		// Only slices that outlive the loop iteration order the elements.
		if v != nil && (v.Pos() < rng.Pos() || v.Pos() > rng.End()) {
			appended = v
		}
		return true
	})
	if appended == nil {
		return taintSource{}, false
	}
	if sortedInFunc(info, node.Decl.Body, appended) {
		return taintSource{}, false
	}
	return taintSource{rng.Pos(), taintMapIter,
		"iterates a map in nondeterministic order into " + appended.Name()}, true
}

// sortedInFunc reports whether body contains a sort of the given slice
// variable — the collect-then-sort idiom that makes map iteration order
// immaterial.
func sortedInFunc(info *types.Info, body *ast.BlockStmt, v *types.Var) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pkgName, ok := info.Uses[id].(*types.PkgName)
		if !ok {
			return true
		}
		switch pkgName.Imported().Path() {
		case "sort", "slices":
		default:
			return true
		}
		// Any sort/slices call whose first argument mentions the slice.
		ast.Inspect(call.Args[0], func(m ast.Node) bool {
			if mid, ok := m.(*ast.Ident); ok && bindingVarInfo(info, mid) == v {
				found = true
			}
			return !found
		})
		return true
	})
	return found
}

// bindingVarInfo is bindingVar without a Pass, for module rules.
func bindingVarInfo(info *types.Info, id *ast.Ident) *types.Var {
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := info.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

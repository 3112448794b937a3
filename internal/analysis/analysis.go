// Package analysis implements bbvet, the repository's determinism and
// simulation-safety static-analysis suite.
//
// The simulator's core claim (DESIGN.md, "Determinism & static analysis")
// is that repeated runs are bit-identical: seeded randomness only, virtual
// time only, insertion-ordered same-time events, single-threaded kernel.
// bbvet makes those invariants machine-checked instead of conventional. It
// is built exclusively on the standard library (go/ast, go/parser,
// go/types) — no external analysis frameworks — and is wired into tier-1
// via TestBBVetRepoClean, so `go test ./...` fails whenever an unsuppressed
// finding is introduced.
//
// Findings print in vet format, `file:line: [rule] message`, and may be
// suppressed with a justified directive on the offending line or the line
// immediately above:
//
//	//bbvet:allow <rule> -- <justification>
//	//bbvet:ordered -- <justification>   (ordered-map-iteration only)
//
// A directive without a justification, and an //bbvet:allow that suppresses
// nothing, are themselves findings, so suppressions cannot rot silently.
package analysis

import (
	"context"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"sort"

	"bbwfsim/internal/runner"
)

// A Finding is one rule violation at a source position.
type Finding struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the finding in vet format: file:line: [rule] message.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Message)
}

// A Pass carries one type-checked package through the rule set.
type Pass struct {
	Fset  *token.FileSet
	Path  string // import path, e.g. "bbwfsim/internal/sim"
	Pkg   *types.Package
	Info  *types.Info
	Files []*ast.File

	directives *directiveSet
	findings   *[]Finding
}

// Reportf records a finding unless a matching //bbvet:allow directive
// covers its line.
func (p *Pass) Reportf(pos token.Pos, rule, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.directives.allows(position, rule) {
		return
	}
	*p.findings = append(*p.findings, Finding{
		Pos:     position,
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// Ordered reports whether a //bbvet:ordered directive covers pos (used by
// the ordered-map-iteration rule).
func (p *Pass) Ordered(pos token.Pos) bool {
	return p.directives.ordered(p.Fset.Position(pos))
}

// PkgUse resolves an identifier to the import path of the package it names,
// or "" if it does not name an imported package.
func (p *Pass) PkgUse(id *ast.Ident) string {
	if obj, ok := p.Info.Uses[id].(*types.PkgName); ok {
		return obj.Imported().Path()
	}
	return ""
}

// Inspect walks every file in the pass.
func (p *Pass) Inspect(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// A Rule is one check in the suite. Package rules (Run) see one package
// at a time; module rules (RunModule) see the whole load plus the call
// graph, which is what makes interprocedural analysis expressible. A rule
// sets exactly one of the two.
type Rule struct {
	Name string
	Doc  string
	// AppliesTo gates a package rule by import path; nil means the whole
	// module. Module rules ignore it.
	AppliesTo func(pkgPath string) bool
	Run       func(*Pass)
	// RunModule runs once over the whole load, after every package pass.
	RunModule func(*ModulePass)
	// Tests opts the package rule into _test.go files of the packages the
	// loader analyzes tests for (deterministic packages): integration and
	// invariant tests assert bit-identical replay, so they must not read
	// the clock or the global rand stream either.
	Tests bool
}

// A ModulePass carries the whole load through a module rule.
type ModulePass struct {
	// Pkgs are the non-test packages, sorted by import path.
	Pkgs []*Package
	// Graph is the module call graph over Pkgs.
	Graph *CallGraph

	directives *directiveSet // merged across every package, test files included
	findings   *[]Finding
	// complete is true when the full rule set is running; audit rules that
	// reason about what every other rule did (stale-directive) only fire
	// then.
	complete bool
}

// Reportf records a module-rule finding unless a matching //bbvet:allow
// directive covers its line.
func (mp *ModulePass) Reportf(pos token.Position, rule, format string, args ...any) {
	if mp.directives.allows(pos, rule) {
		return
	}
	*mp.findings = append(*mp.findings, Finding{
		Pos:     pos,
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// Rules returns the full bbvet rule set, in stable order. stale-directive
// must come last: it audits the suppressions every other rule consumed.
func Rules() []Rule {
	return []Rule{
		noWalltimeRule(),
		seededRandRule(),
		orderedMapRule(),
		kernelPurityRule(),
		runnerIsolationRule(),
		floatCompareRule(),
		uncheckedErrorRule(),
		metricsVirtualTimeRule(),
		determinismTaintRule(),
		unstableSortRule(),
		globalMutableStateRule(),
		unreachedRule(),
		implicitFMARule(),
		staleDirectiveRule(),
	}
}

// RuleNames returns the names of all rules, in stable order.
func RuleNames() []string {
	rules := Rules()
	names := make([]string, len(rules))
	for i, r := range rules {
		names[i] = r.Name
	}
	return names
}

func isRuleName(name string) bool {
	for _, n := range RuleNames() {
		if n == name {
			return true
		}
	}
	return false
}

// simPackages are the packages whose execution feeds simulated results:
// the discrete-event kernel, the fluid model, and everything that decides
// or observes simulated behavior. Rules scoped to "simulation packages"
// match on the final import-path element so testdata fixtures can stand in
// for the real packages.
var simPackages = map[string]bool{
	"sim": true, "flow": true, "exec": true, "core": true,
	"storage": true, "testbed": true, "calib": true,
	"placement": true, "optimize": true, "faults": true,
	"metrics": true, "invariants": true, "ckpt": true,
	"adapt": true, "sched": true,
	// The canonical JSON writer renders the result documents whose bytes
	// are the service cache's identity witness.
	"jsonw": true,
}

// kernelPackages is the single-threaded discrete-event core whose
// determinism depends on the absence of any concurrency: the event loop,
// the fluid model, and the task executor that drives them. Concurrency in
// this repository lives one layer up, in the campaign runner (see
// runnerIsolationRule) — never inside a run. The trace package is included
// because streaming sinks are driven from inside the event loop (Record →
// Sink.Emit on the hot path).
var kernelPackages = map[string]bool{
	"sim": true, "flow": true, "exec": true, "ckpt": true, "adapt": true,
	"trace": true, "sched": true,
}

// deterministicOutputPackages additionally covers packages whose output is
// asserted bit-identical across runs (experiment tables, traces), and the
// end-to-end integration tests, which exist only as test files but assert
// exactly those bit-identity contracts.
var deterministicOutputPackages = map[string]bool{
	"experiments": true, "trace": true,
	"swarp": true, "genomes": true, "workloads": true,
	"ckpttraffic": true, "workflow": true, "stats": true,
	"integration": true,
}

// emitterPackages write CSV/JSON artifacts whose I/O errors must not be
// dropped.
var emitterPackages = map[string]bool{
	"trace": true, "experiments": true, "metrics": true, "jsonw": true,
	// The daemon's handlers, journal, and offline mode write JSON/Prom
	// artifacts; dropped I/O errors there are served corruption. The
	// package is deliberately NOT in deterministicOutputPackages — the
	// serving layer reads the wall clock for deadlines; only the Execute
	// path below it is determinism-checked, via its taint sink.
	"service": true,
}

func isSimPackage(pkgPath string) bool {
	return simPackages[path.Base(pkgPath)]
}

func isKernelPackage(pkgPath string) bool {
	return kernelPackages[path.Base(pkgPath)]
}

func isDeterministicPackage(pkgPath string) bool {
	base := path.Base(pkgPath)
	return simPackages[base] || deterministicOutputPackages[base]
}

func isEmitterPackage(pkgPath string) bool {
	return emitterPackages[path.Base(pkgPath)]
}

// Run executes every rule over every package and returns the surviving
// findings sorted by position. Malformed directives are reported under the
// pseudo-rule "directive"; directives that suppress nothing are the
// stale-directive rule's findings.
//
// The per-package passes are independent, so they fan out across worker
// goroutines via internal/runner; results merge by submission index and
// the final sort is total (file, line, rule, message), so the output is
// bit-identical at any parallelism. Module rules then run serially over
// the merged state: first the call-graph passes, last the directive audit.
func Run(pkgs []*Package, rules []Rule) []Finding {
	type pkgOut struct {
		findings []Finding
		dirs     *directiveSet
	}
	outs, err := runner.Map(context.TODO(), 0, len(pkgs), func(i int) (pkgOut, error) {
		pkg := pkgs[i]
		dirs, findings := collectDirectives(pkg.Fset, pkg.Files)
		pass := &Pass{
			Fset:       pkg.Fset,
			Path:       pkg.Path,
			Pkg:        pkg.Pkg,
			Info:       pkg.Info,
			Files:      pkg.Files,
			directives: dirs,
			findings:   &findings,
		}
		for _, rule := range rules {
			if rule.Run == nil {
				continue
			}
			if pkg.Test && !rule.Tests {
				continue
			}
			if rule.AppliesTo != nil && !rule.AppliesTo(pkg.Path) {
				continue
			}
			rule.Run(pass)
		}
		return pkgOut{findings, dirs}, nil
	})
	if err != nil {
		// The point function never errors; a panic propagates as itself.
		panic(err)
	}
	var findings []Finding
	merged := newDirectiveSet()
	for _, o := range outs {
		findings = append(findings, o.findings...)
		merged.merge(o.dirs)
	}

	var moduleRules []Rule
	for _, rule := range rules {
		if rule.RunModule != nil {
			moduleRules = append(moduleRules, rule)
		}
	}
	if len(moduleRules) > 0 {
		var nonTest []*Package
		for _, pkg := range pkgs {
			if !pkg.Test {
				nonTest = append(nonTest, pkg)
			}
		}
		mp := &ModulePass{
			Pkgs:       nonTest,
			Graph:      BuildCallGraph(nonTest),
			directives: merged,
			findings:   &findings,
			complete:   hasFullRuleSet(rules),
		}
		for _, rule := range moduleRules {
			rule.RunModule(mp)
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if findings[i].Rule != findings[j].Rule {
			return findings[i].Rule < findings[j].Rule
		}
		return findings[i].Message < findings[j].Message
	})
	return findings
}

// hasFullRuleSet reports whether rules is the complete suite (by name), in
// which case audit rules that reason about every other rule's behavior may
// fire.
func hasFullRuleSet(rules []Rule) bool {
	have := make(map[string]bool, len(rules))
	for _, r := range rules {
		have[r.Name] = true
	}
	for _, name := range RuleNames() {
		if !have[name] {
			return false
		}
	}
	return true
}

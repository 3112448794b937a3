package analysis

import (
	"bufio"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestFixtures runs the full rule set over each testdata package and
// checks the findings against the `// want` expectation comments embedded
// in the fixtures, analysistest-style: every finding must match a want on
// its line, and every want must be matched by a finding.
func TestFixtures(t *testing.T) {
	dirs, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		t.Run(d.Name(), func(t *testing.T) {
			dir := filepath.Join("testdata", "src", d.Name())
			// Fixture packages stand in for real module packages: the
			// directory name selects which package-scoped rules apply.
			pkgs, err := LoadDir(dir, "bbwfsim/internal/"+d.Name())
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			findings := Run(pkgs, Rules())
			wants, err := collectWants(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range findings {
				// Fixture functions are uncalled by design; only the
				// unreached fixture states what that rule reports.
				if f.Rule == "unreached" && d.Name() != "unreached" {
					continue
				}
				if !wants.match(f) {
					t.Errorf("unexpected finding: %s", f)
				}
			}
			for _, w := range wants.unmatched() {
				t.Errorf("%s:%d: expected a finding matching %q, got none", w.file, w.line, w.re)
			}
		})
	}
}

// TestBBVetRepoClean runs the entire bbvet rule set over the whole module,
// wiring the determinism invariants into tier-1: `go test ./...` fails as
// soon as an unsuppressed finding is introduced anywhere in the tree.
func TestBBVetRepoClean(t *testing.T) {
	pkgs, err := LoadModule("../..")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; the module loader is missing most of the tree", len(pkgs))
	}
	findings := Run(pkgs, Rules())
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Logf("run `go run ./cmd/bbvet ./...` locally; fix the finding or add a justified //bbvet:allow directive (see DESIGN.md)")
	}
}

// TestRunBitIdentical pins the parallel fan-out contract: the per-package
// passes run on a worker pool, so repeated runs see different goroutine
// interleavings, yet the merged, totally-sorted findings must be
// byte-for-byte identical — the analyzer honors the determinism contract
// it enforces.
func TestRunBitIdentical(t *testing.T) {
	var load []*Package
	for _, name := range []string{"exec", "sim", "stats", "directives"} {
		pkgs, err := LoadDir(filepath.Join("testdata", "src", name), "bbwfsim/internal/"+name)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", name, err)
		}
		load = append(load, pkgs...)
	}
	render := func(fs []Finding) string {
		var sb strings.Builder
		for _, f := range fs {
			fmt.Fprintln(&sb, f)
		}
		return sb.String()
	}
	first := render(Run(load, Rules()))
	if first == "" {
		t.Fatal("fixture load produced no findings; the comparison is vacuous")
	}
	for i := 0; i < 5; i++ {
		if got := render(Run(load, Rules())); got != first {
			t.Fatalf("run %d diverged:\n--- first ---\n%s--- got ---\n%s", i+2, first, got)
		}
	}
}

// TestSplitDirective pins the directive grammar.
func TestSplitDirective(t *testing.T) {
	cases := []struct {
		in, head, just string
	}{
		{" float-compare -- exact zero sentinel", "float-compare", "exact zero sentinel"},
		{" float-compare", "float-compare", ""},
		{" -- just", "", "just"},
		{" float-compare -- reason // want `x`", "float-compare", "reason"},
		{"", "", ""},
	}
	for _, c := range cases {
		head, just := splitDirective(c.in)
		if head != c.head || just != c.just {
			t.Errorf("splitDirective(%q) = (%q, %q), want (%q, %q)", c.in, head, just, c.head, c.just)
		}
	}
}

// TestRuleNamesStable guards the names the directives reference.
func TestRuleNamesStable(t *testing.T) {
	want := []string{
		"no-walltime", "seeded-rand-only", "ordered-map-iteration",
		"no-goroutines-in-kernel", "runner-isolation", "float-compare", "unchecked-error",
		"metrics-virtual-time",
		"determinism-taint", "unstable-sort", "global-mutable-state", "unreached", "implicit-fma",
		"stale-directive",
	}
	got := RuleNames()
	if len(got) != len(want) {
		t.Fatalf("RuleNames() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("rule %d = %q, want %q (directives in the tree reference these names)", i, got[i], want[i])
		}
	}
}

// --- want-expectation machinery -------------------------------------------

type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

type wantSet struct {
	wants []*want
}

var wantRE = regexp.MustCompile("// want (`[^`]+`(?: `[^`]+`)*)")

// collectWants extracts `// want `regex“ expectations, line by line, from
// every fixture file in dir.
func collectWants(dir string) (*wantSet, error) {
	set := &wantSet{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		scanner := bufio.NewScanner(f)
		for line := 1; scanner.Scan(); line++ {
			m := wantRE.FindStringSubmatch(scanner.Text())
			if m == nil {
				continue
			}
			for _, quoted := range strings.Split(m[1], "` `") {
				expr := strings.Trim(quoted, "`")
				re, err := regexp.Compile(expr)
				if err != nil {
					f.Close()
					return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", path, line, expr, err)
				}
				set.wants = append(set.wants, &want{file: path, line: line, re: re})
			}
		}
		if err := scanner.Err(); err != nil {
			f.Close()
			return nil, err
		}
		f.Close()
	}
	return set, nil
}

// match consumes the first unmatched want on the finding's line whose
// regexp matches "[rule] message".
func (s *wantSet) match(f Finding) bool {
	text := fmt.Sprintf("[%s] %s", f.Rule, f.Message)
	for _, w := range s.wants {
		if w.matched || w.line != f.Pos.Line || filepath.Base(w.file) != filepath.Base(f.Pos.Filename) {
			continue
		}
		if w.re.MatchString(text) {
			w.matched = true
			return true
		}
	}
	return false
}

func (s *wantSet) unmatched() []*want {
	var out []*want
	for _, w := range s.wants {
		if !w.matched {
			out = append(out, w)
		}
	}
	return out
}

// LoadDir parses and type-checks the single package in dir as if it had
// the given import path. Used by the fixture tests, whose testdata
// packages stand in for real module packages. Returns the package plus,
// when the fixture carries same-package _test.go files and the import
// path is one whose tests are analyzed, the Test view of it.
func LoadDir(dir, importPath string) ([]*Package, error) {
	fset := token.NewFileSet()
	pkg, err := parseDir(fset, dir, filepath.Dir(dir), "")
	if err != nil {
		return nil, err
	}
	if pkg == nil || len(pkg.Files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	pkg.Path = importPath
	imp, err := newModuleImporter(fset, nil)
	if err != nil {
		return nil, err
	}
	if err := check(fset, pkg, imp); err != nil {
		return nil, err
	}
	pkgs := []*Package{pkg}
	tests, err := checkTestPackages(fset, pkg, imp)
	if err != nil {
		return nil, err
	}
	return append(pkgs, tests...), nil
}

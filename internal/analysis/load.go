package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one parsed and type-checked package of the module. For a
// test package (Test == true), Files holds only the _test.go files — the
// rule passes must not re-report the non-test files it was checked
// alongside — while Info and Pkg cover the combined compilation.
type Package struct {
	Path  string // import path (test packages share their base package's path)
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Test marks the _test.go view of a package; only rules that opt in
	// via Rule.Tests run over it, and it never joins the call graph.
	Test bool

	// Parsed test files awaiting the second type-check phase: same-package
	// (package foo) and external (package foo_test).
	testFiles    []*ast.File
	extTestFiles []*ast.File
}

// LoadModule parses and type-checks every package under the module rooted
// at or above dir, using only the standard library: the module layout is
// discovered by walking the tree (the module has no external dependencies,
// so import paths map 1:1 onto directories), and standard-library imports
// are type-checked from source via go/importer.
//
// Test files are analyzed only for the deterministic packages (the ones
// whose tests assert bit-identical replay, so wall time and unseeded
// randomness are as unwelcome there as in the simulation itself); they
// surface as additional Test packages after the non-test packages. Test
// files elsewhere — CLI glue, the analyzer's own tests — legitimately use
// wall time, ad-hoc randomness, and goroutines, and stay excluded.
func LoadModule(dir string) ([]*Package, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	byPath := make(map[string]*Package)
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		pkg, err := parseDir(fset, p, root, modPath)
		if err != nil {
			return err
		}
		if pkg != nil {
			byPath[pkg.Path] = pkg
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	pkgs, err := checkAll(fset, byPath, modPath)
	if err != nil {
		return nil, err
	}
	return pkgs, nil
}

// findModule walks upward from dir to the enclosing go.mod and returns the
// module root and module path.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for p := abs; ; p = filepath.Dir(p) {
		data, err := os.ReadFile(filepath.Join(p, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return p, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module line", p)
		}
		if filepath.Dir(p) == p {
			return "", "", fmt.Errorf("analysis: no go.mod at or above %s", abs)
		}
	}
}

// parseDir parses the Go files directly in dir, returning nil if there are
// none. Non-test files become the package's Files; _test.go files are
// collected — for deterministic packages only — into testFiles (package foo)
// and extTestFiles (package foo_test) for the second type-check phase. A
// directory holding only test files (the integration suite) still yields a
// package, with empty Files.
func parseDir(fset *token.FileSet, dir, root, modPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	importPath := modPath
	if rel, err := filepath.Rel(root, dir); err == nil && rel != "." {
		importPath = modPath + "/" + filepath.ToSlash(rel)
	}
	withTests := isDeterministicPackage(importPath)
	var files, testFiles, extTestFiles []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		isTest := strings.HasSuffix(name, "_test.go")
		if isTest && !withTests {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		switch {
		case !isTest:
			files = append(files, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			extTestFiles = append(extTestFiles, f)
		default:
			testFiles = append(testFiles, f)
		}
	}
	if len(files) == 0 && len(testFiles) == 0 && len(extTestFiles) == 0 {
		return nil, nil
	}
	return &Package{
		Path: importPath, Dir: dir, Fset: fset, Files: files,
		testFiles: testFiles, extTestFiles: extTestFiles,
	}, nil
}

// checkAll type-checks the module's packages in dependency order and
// returns them sorted by import path.
func checkAll(fset *token.FileSet, byPath map[string]*Package, modPath string) ([]*Package, error) {
	checked := make(map[string]*types.Package)
	imp, err := newModuleImporter(fset, checked)
	if err != nil {
		return nil, err
	}
	var visit func(path string, stack []string) error
	visit = func(path string, stack []string) error {
		if _, done := checked[path]; done {
			return nil
		}
		for _, s := range stack {
			if s == path {
				return fmt.Errorf("analysis: import cycle: %s", strings.Join(append(stack, path), " -> "))
			}
		}
		pkg := byPath[path]
		if pkg == nil {
			return fmt.Errorf("analysis: import %q not found in module %s", path, modPath)
		}
		for _, dep := range moduleImports(pkg, modPath) {
			if err := visit(dep, append(stack, path)); err != nil {
				return err
			}
		}
		if len(pkg.Files) == 0 {
			// Test-only package (the integration suite); nothing imports it,
			// so it has no base compilation to record. Checked in phase 2.
			return nil
		}
		if err := check(fset, pkg, imp); err != nil {
			return err
		}
		checked[path] = pkg.Pkg
		return nil
	}
	paths := make([]string, 0, len(byPath))
	for p := range byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := visit(p, nil); err != nil {
			return nil, err
		}
	}
	pkgs := make([]*Package, 0, len(paths))
	for _, p := range paths {
		if pkg := byPath[p]; len(pkg.Files) > 0 {
			pkgs = append(pkgs, pkg)
		}
	}
	// Phase 2: with every base package in the importer's checked set, the
	// test compilations of the deterministic packages can resolve their
	// module-internal imports. Test packages surface after the non-test
	// packages, in path order, so the load stays deterministic.
	for _, p := range paths {
		tests, err := checkTestPackages(fset, byPath[p], imp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, tests...)
	}
	return pkgs, nil
}

// checkTestPackages type-checks pkg's collected _test.go files, if any,
// and returns the resulting Test packages: the in-package test files are
// checked alongside the base files (they extend the same package) but the
// returned view carries only the test files, so rules do not re-report the
// base compilation; an external foo_test package is checked on its own,
// keeping the base import path so path-scoped rules still apply.
func checkTestPackages(fset *token.FileSet, pkg *Package, imp *moduleImporter) ([]*Package, error) {
	var out []*Package
	conf := types.Config{Importer: imp}
	if len(pkg.testFiles) > 0 {
		files := make([]*ast.File, 0, len(pkg.Files)+len(pkg.testFiles))
		files = append(files, pkg.Files...)
		files = append(files, pkg.testFiles...)
		info := newInfo()
		tpkg, err := conf.Check(pkg.Path, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("analysis: type-checking %s tests: %w", pkg.Path, err)
		}
		out = append(out, &Package{
			Path: pkg.Path, Dir: pkg.Dir, Fset: fset,
			Files: pkg.testFiles, Pkg: tpkg, Info: info, Test: true,
		})
	}
	if len(pkg.extTestFiles) > 0 {
		info := newInfo()
		tpkg, err := conf.Check(pkg.Path+"_test", fset, pkg.extTestFiles, info)
		if err != nil {
			return nil, fmt.Errorf("analysis: type-checking %s external tests: %w", pkg.Path, err)
		}
		out = append(out, &Package{
			Path: pkg.Path, Dir: pkg.Dir, Fset: fset,
			Files: pkg.extTestFiles, Pkg: tpkg, Info: info, Test: true,
		})
	}
	return out, nil
}

// moduleImports lists pkg's imports that live inside the module.
func moduleImports(pkg *Package, modPath string) []string {
	seen := make(map[string]bool)
	var deps []string
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if (path == modPath || strings.HasPrefix(path, modPath+"/")) && !seen[path] {
				seen[path] = true
				deps = append(deps, path)
			}
		}
	}
	sort.Strings(deps)
	return deps
}

// moduleImporter resolves module-internal imports from the already-checked
// set and everything else (the standard library) from source.
type moduleImporter struct {
	checked map[string]*types.Package
	std     types.ImporterFrom
}

// newModuleImporter builds an importer sharing fset, so positions in
// findings stay consistent, and sharing the standard-library importer
// across packages, so each stdlib package is type-checked once per load.
func newModuleImporter(fset *token.FileSet, checked map[string]*types.Package) (*moduleImporter, error) {
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("analysis: source importer does not support ImporterFrom")
	}
	return &moduleImporter{checked: checked, std: std}, nil
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg, ok := m.checked[path]; ok {
		return pkg, nil
	}
	if m.checked == nil && strings.HasPrefix(path, "bbwfsim/") {
		// Fixture mode (LoadDir): module-internal imports cannot resolve
		// from testdata. Import-ban rules only inspect the path, so most
		// stand-ins can be empty — but the metrics-virtual-time rule resolves
		// callees through the type-checker, so the metrics stand-in carries
		// the real package's emission surface.
		if path == "bbwfsim/internal/metrics" {
			return synthMetricsPackage(path), nil
		}
		pkg := types.NewPackage(path, filepath.Base(path))
		pkg.MarkComplete()
		return pkg, nil
	}
	return m.std.ImportFrom(path, dir, mode)
}

// synthMetricsPackage builds a typed stand-in for the real metrics package,
// with an emission surface of its own (Collector.Add/GaugeMax/Observe, Key,
// New) so fixtures for the metrics-virtual-time rule type-check and their
// call sites resolve to a package whose base name is "metrics".
func synthMetricsPackage(path string) *types.Package {
	pkg := types.NewPackage(path, "metrics")
	scope := pkg.Scope()
	keyName := types.NewTypeName(token.NoPos, pkg, "Key", nil)
	key := types.NewNamed(keyName, types.NewStruct(nil, nil), nil)
	scope.Insert(keyName)
	colName := types.NewTypeName(token.NoPos, pkg, "Collector", nil)
	col := types.NewNamed(colName, types.NewStruct(nil, nil), nil)
	scope.Insert(colName)
	recv := types.NewPointer(col)
	str := types.Typ[types.String]
	f64 := types.Typ[types.Float64]
	for _, name := range []string{"Add", "GaugeMax", "Observe"} {
		sig := types.NewSignatureType(
			types.NewVar(token.NoPos, pkg, "c", recv), nil, nil,
			types.NewTuple(
				types.NewVar(token.NoPos, pkg, "family", str),
				types.NewVar(token.NoPos, pkg, "k", key),
				types.NewVar(token.NoPos, pkg, "v", f64),
			),
			nil, false)
		col.AddMethod(types.NewFunc(token.NoPos, pkg, name, sig))
	}
	newSig := types.NewSignatureType(nil, nil, nil,
		types.NewTuple(
			types.NewVar(token.NoPos, pkg, "platform", str),
			types.NewVar(token.NoPos, pkg, "workflow", str),
		),
		types.NewTuple(types.NewVar(token.NoPos, pkg, "", recv)),
		false)
	scope.Insert(types.NewFunc(token.NoPos, pkg, "New", newSig))
	pkg.MarkComplete()
	return pkg
}

// newInfo allocates the types.Info maps every bbvet pass relies on.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}

// check type-checks one parsed package, populating pkg.Pkg and pkg.Info.
func check(fset *token.FileSet, pkg *Package, imp *moduleImporter) error {
	conf := types.Config{Importer: imp}
	info := newInfo()
	tpkg, err := conf.Check(pkg.Path, fset, pkg.Files, info)
	if err != nil {
		return fmt.Errorf("analysis: type-checking %s: %w", pkg.Path, err)
	}
	pkg.Pkg = tpkg
	pkg.Info = info
	return nil
}

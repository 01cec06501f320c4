// Package analysis is flickervet's engine: a dependency-free static-analysis
// suite for this module, built only on go/ast, go/parser, go/types, and
// go/importer.
//
// The paper's headline claim is a *measured, minimal* TCB (Section 7.1:
// hundreds of lines where a commodity stack has millions). A repo that
// simulates that claim should be able to measure its own TCB and enforce
// the security contracts the simulation models mechanically — the bug
// classes this package codifies (unclamped wire-length allocations, wall
// clock leaking into cycle-accounted code, staged secrets without a
// registered scrub, locality-4 ordinals escaping the SKINIT path, and
// per-event metric-handle lookups) have each been hit and hand-fixed in
// this repo's history.
//
// The loader in this file type-checks the whole module from source:
// module-internal imports resolve to their directories, standard-library
// imports go through go/importer (compiled export data when available,
// source otherwise). Nothing outside the standard library is required.
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

// Package is one loaded, type-checked package of the module (or a test
// fixture loaded under a synthetic import path).
type Package struct {
	// Path is the package's import path ("flicker/internal/core").
	Path string
	// Dir is the directory the sources were read from.
	Dir string
	// Files are the parsed non-test sources, in file-name order.
	Files []*ast.File
	// Types and Info are the go/types results for the package.
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects type-checking failures. Analysis still runs on
	// what checked, but flickervet reports these and exits nonzero.
	TypeErrors []error
}

// Loader loads and type-checks packages of a single module from source.
type Loader struct {
	// Fset positions every loaded file, shared across packages.
	Fset *token.FileSet
	// Root is the module root (the directory holding go.mod).
	Root string
	// Module is the module path declared in go.mod.
	Module string

	pkgs    map[string]*Package // by import path
	loading map[string]bool     // import cycle guard
	std     types.Importer      // stdlib fallback chain
	stdPkgs map[string]*types.Package
}

// NewLoader creates a loader for the module rooted at root (the directory
// containing go.mod).
func NewLoader(root string) (*Loader, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	// One importer instance for the loader's whole lifetime: a fresh
	// importer per import would hand out distinct *types.Package instances
	// for the same stdlib path, and cross-package types would not unify.
	// Compiled export data (gc) is ~10x faster when the toolchain ships it;
	// probe once and fall back to type-checking the stdlib from source.
	std := importer.Default()
	if _, err := std.Import("fmt"); err != nil {
		std = importer.ForCompiler(fset, "source", nil)
	}
	return &Loader{
		Fset:    fset,
		Root:    root,
		Module:  mod,
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
		std:     std,
		stdPkgs: make(map[string]*types.Package),
	}, nil
}

// FindModuleRoot walks up from dir looking for go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// LoadAll loads every package under the module root, skipping testdata,
// vendor, hidden, and underscore-prefixed directories. The result is sorted
// by import path.
func (l *Loader) LoadAll() ([]*Package, error) {
	var pkgs []*Package
	err := filepath.WalkDir(l.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.Root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if !hasGoFiles(path) {
			return nil
		}
		pkg, err := l.LoadDir(path)
		if err != nil {
			return err
		}
		pkgs = append(pkgs, pkg)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// LoadDir loads the package in dir, a directory of the module, under its
// import path.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil {
		return nil, err
	}
	imp := l.Module
	if rel != "." {
		imp += "/" + filepath.ToSlash(rel)
	}
	return l.load(imp)
}

// LoadDirAs loads the package in dir under the given synthetic import path.
// Analyzer tests use it to place fixture packages inside an analyzer's
// package-path scope without the fixtures living there.
func (l *Loader) LoadDirAs(dir, importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	return l.loadDir(dir, importPath)
}

// Package returns an already-loaded package by import path, or nil.
func (l *Loader) Package(path string) *Package { return l.pkgs[path] }

// Packages returns every module package loaded so far, sorted by path.
func (l *Loader) Packages() []*Package {
	out := make([]*Package, 0, len(l.pkgs))
	for _, p := range l.pkgs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if n := e.Name(); !e.IsDir() && strings.HasSuffix(n, ".go") &&
			!strings.HasSuffix(n, "_test.go") {
			return true
		}
	}
	return false
}

// load resolves a module-internal import path to its directory and loads it.
func (l *Loader) load(importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	rel := strings.TrimPrefix(importPath, l.Module)
	rel = strings.TrimPrefix(rel, "/")
	return l.loadDir(filepath.Join(l.Root, filepath.FromSlash(rel)), importPath)
}

// loadDir parses and type-checks one directory as importPath.
func (l *Loader) loadDir(dir, importPath string) (*Package, error) {
	if l.loading[importPath] {
		return nil, fmt.Errorf("analysis: import cycle through %q", importPath)
	}
	l.loading[importPath] = true
	defer func() { delete(l.loading, importPath) }()

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %q: %w", importPath, err)
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: parsing %s: %w", name, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}

	pkg := &Package{Path: importPath, Dir: dir, Files: files}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			return l.importPkg(path)
		}),
		Error: func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, _ := conf.Check(importPath, l.Fset, files, info)
	pkg.Types = tpkg
	pkg.Info = info
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// importPkg resolves one import: module-internal paths load from source,
// everything else goes to the loader's standard-library importer.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		if len(p.TypeErrors) > 0 {
			return p.Types, fmt.Errorf("analysis: %q has type errors", path)
		}
		return p.Types, nil
	}
	if p, ok := l.stdPkgs[path]; ok {
		return p, nil
	}
	p, err := l.std.Import(path)
	if err != nil {
		return nil, err
	}
	l.stdPkgs[path] = p
	return p, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

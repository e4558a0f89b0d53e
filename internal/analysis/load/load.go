// Package load type-checks Go packages from source using only the
// standard library. It is the substrate for cmd/swlint and the
// analysistest harness: the container this repository builds in has no
// module proxy access, so golang.org/x/tools/go/packages is unavailable
// and dependencies are resolved by hand — module-local import paths map
// onto directories under the module root, everything else resolves into
// GOROOT/src (with the stdlib's vendored modules under GOROOT/src/vendor).
//
// Packages under analysis are checked with full function bodies and a
// populated types.Info; dependencies are checked exports-only
// (IgnoreFuncBodies), which keeps a whole-repo run — including the
// net/http and go/types trees — around a second. Cgo is disabled in the
// file-selection context so that packages like net type-check from their
// pure-Go fallback files.
package load

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one fully type-checked package ready for analysis.
type Package struct {
	// Path is the import path ("switchflow/internal/core").
	Path string
	// Dir is the directory holding the sources.
	Dir string
	// Files are the parsed non-test Go files, in file-name order.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info holds the type information for Files.
	Info *types.Info
}

// Loader loads and type-checks packages. It caches dependencies, so one
// Loader amortizes the stdlib across many Load calls.
type Loader struct {
	ctxt       build.Context
	fset       *token.FileSet
	moduleDir  string
	modulePath string
	deps       map[string]*types.Package
	// local caches module-local packages, which are always checked in full
	// — a single types.Package instance per path, whether the package is
	// being analyzed or merely imported. Mixing a full and an exports-only
	// instance of the same path would make identical named types compare
	// unequal in importers' eyes.
	local   map[string]*Package
	loading map[string]bool
}

// New returns a Loader rooted at the module directory. modulePath is the
// module's import path from go.mod (e.g. "switchflow"); moduleDir may be
// empty for loaders that only check free-standing directories (testdata).
func New(moduleDir, modulePath string) *Loader {
	ctxt := build.Default
	ctxt.CgoEnabled = false
	return &Loader{
		ctxt:       ctxt,
		fset:       token.NewFileSet(),
		moduleDir:  moduleDir,
		modulePath: modulePath,
		deps:       make(map[string]*types.Package),
		local:      make(map[string]*Package),
		loading:    make(map[string]bool),
	}
}

// Fset returns the loader's file set; positions in every loaded package
// resolve through it.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// Import implements types.Importer for dependency resolution.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := l.deps[path]; ok {
		return pkg, nil
	}
	if l.isLocal(path) {
		pkg, err := l.loadLocal(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	dir, err := l.dirFor(path)
	if err != nil {
		return nil, err
	}
	l.loading[path] = true
	defer delete(l.loading, path)
	pkg, _, _, err := l.check(dir, path, false)
	if err != nil {
		return nil, err
	}
	l.deps[path] = pkg
	return pkg, nil
}

// isLocal reports whether path names a package of the module itself.
func (l *Loader) isLocal(path string) bool {
	return l.modulePath != "" && (path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/"))
}

// loadLocal fully checks (or returns the cached) module-local package.
func (l *Loader) loadLocal(path string) (*Package, error) {
	if pkg, ok := l.local[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)
	dir, err := l.dirFor(path)
	if err != nil {
		return nil, err
	}
	pkg, files, info, err := l.check(dir, path, true)
	if err != nil {
		return nil, err
	}
	p := &Package{Path: path, Dir: dir, Files: files, Types: pkg, Info: info}
	l.local[path] = p
	return p, nil
}

// dirFor resolves an import path to a source directory.
func (l *Loader) dirFor(path string) (string, error) {
	if l.modulePath != "" && (path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/")) {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modulePath), "/")
		return filepath.Join(l.moduleDir, filepath.FromSlash(rel)), nil
	}
	goroot := l.ctxt.GOROOT
	for _, base := range []string{
		filepath.Join(goroot, "src"),
		filepath.Join(goroot, "src", "vendor"),
	} {
		dir := filepath.Join(base, filepath.FromSlash(path))
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir, nil
		}
	}
	return "", fmt.Errorf("cannot resolve import %q (not in module %q or GOROOT)", path, l.modulePath)
}

// check parses and type-checks the package in dir. full selects
// function-body checking and types.Info collection (for packages under
// analysis); dependencies use exports-only mode.
func (l *Loader) check(dir, path string, full bool) (*types.Package, []*ast.File, *types.Info, error) {
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	names := append([]string(nil), bp.GoFiles...)
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
	}
	var info *types.Info
	if full {
		info = &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Implicits:  make(map[ast.Node]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Scopes:     make(map[ast.Node]*types.Scope),
		}
	}
	var firstErr error
	conf := types.Config{
		Importer:         l,
		IgnoreFuncBodies: !full,
		FakeImportC:      true,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	pkg, err := conf.Check(path, l.fset, files, info)
	if firstErr != nil {
		return nil, nil, nil, fmt.Errorf("typecheck %s: %w", path, firstErr)
	}
	if err != nil {
		return nil, nil, nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	return pkg, files, info, nil
}

// LoadDir fully type-checks the single package in dir under the given
// import path (which need not be resolvable — testdata packages use their
// directory name).
//
//swlint:allow testonly the analyzers' test harness loads testdata packages through it
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	if l.isLocal(path) {
		return l.loadLocal(path)
	}
	pkg, files, info, err := l.check(dir, path, true)
	if err != nil {
		return nil, err
	}
	return &Package{Path: path, Dir: dir, Files: files, Types: pkg, Info: info}, nil
}

// LoadModule fully type-checks every package of the module, in import-path
// order. Directories named testdata, hidden directories, and directories
// without buildable Go files are skipped, matching the go tool's own
// package walk.
func (l *Loader) LoadModule() ([]*Package, error) {
	if l.moduleDir == "" {
		return nil, fmt.Errorf("loader has no module root")
	}
	var dirs []string
	err := filepath.WalkDir(l.moduleDir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.moduleDir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		dirs = append(dirs, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		if _, err := l.ctxt.ImportDir(dir, 0); err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				continue
			}
			return nil, err
		}
		rel, err := filepath.Rel(l.moduleDir, dir)
		if err != nil {
			return nil, err
		}
		path := l.modulePath
		if rel != "." {
			path = l.modulePath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.loadLocal(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// ModuleRoot walks up from dir to the nearest directory containing go.mod
// and returns it with the module path parsed from the file.
func ModuleRoot(dir string) (root, modulePath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if after, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(after), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

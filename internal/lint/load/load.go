// Package load parses and typechecks the packages of one Go module for the
// ccsvm lint suite, using only the standard library (go/parser, go/types and
// the compiler's export-data importer). It is a small stand-in for
// golang.org/x/tools/go/packages: it understands exactly the two layouts the
// lint drivers need — this repository (a module with internal packages) and
// the linttest testdata tree (bare directory-named packages) — and returns
// packages in dependency order, each typechecked after its intra-module
// imports.
package load

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and typechecked package.
type Package struct {
	// ImportPath is the package's import path ("ccsvm/internal/sim", or the
	// bare directory name in testdata mode).
	ImportPath string
	// Dir is the directory the package was loaded from.
	Dir string
	// Files is the parsed syntax of the package's non-test Go files.
	Files []*ast.File
	// Types is the typechecked package object.
	Types *types.Package
	// Info is the package's type and object resolution.
	Info *types.Info
}

// Config controls a load.
type Config struct {
	// Root is the directory resolved against; with "./..." patterns it is the
	// tree that is walked.
	Root string
	// ModulePath is the import-path prefix of packages under Root. Empty
	// means testdata mode: an import path is a directory under Root.
	ModulePath string
}

// Loader loads packages and owns the shared FileSet.
type Loader struct {
	cfg  Config
	fset *token.FileSet

	pkgs    map[string]*Package // by import path, fully loaded
	loading map[string]bool     // cycle detection
	std     types.Importer
	stdSrc  types.Importer
	order   []*Package
}

// New returns a loader for the given configuration.
func New(cfg Config) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		cfg:     cfg,
		fset:    fset,
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
		std:     importer.Default(),
		stdSrc:  importer.ForCompiler(fset, "source", nil),
	}
}

// Fset returns the FileSet shared by every loaded package.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// ModuleRoot locates the enclosing module: it walks up from dir to the first
// directory containing go.mod and returns that directory and the module path
// declared in it.
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
				if path, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(path), nil
				}
			}
			return "", "", fmt.Errorf("load: %s/go.mod has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("load: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// Load resolves the given patterns ("./...", or directory paths relative to
// the root) and returns the matched packages and all their intra-module
// dependencies in dependency order (imported packages before importers).
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	var dirs []string
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			walked, err := l.walk(l.cfg.Root)
			if err != nil {
				return nil, err
			}
			dirs = append(dirs, walked...)
		default:
			dirs = append(dirs, filepath.Join(l.cfg.Root, filepath.FromSlash(strings.TrimPrefix(pat, "./"))))
		}
	}
	for _, dir := range dirs {
		if _, err := l.loadDir(dir); err != nil {
			return nil, err
		}
	}
	return l.order, nil
}

// walk returns every package directory under root, skipping testdata, vendor
// and hidden trees.
func (l *Loader) walk(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	sort.Strings(dirs)
	return dirs, err
}

func hasGoFiles(dir string) bool {
	bp, err := build.ImportDir(dir, 0)
	return err == nil && len(bp.GoFiles) > 0
}

// importPathOf maps a package directory to its import path under the config.
func (l *Loader) importPathOf(dir string) (string, error) {
	rel, err := filepath.Rel(l.cfg.Root, dir)
	if err != nil {
		return "", err
	}
	rel = filepath.ToSlash(rel)
	if l.cfg.ModulePath == "" {
		return rel, nil
	}
	if rel == "." {
		return l.cfg.ModulePath, nil
	}
	return l.cfg.ModulePath + "/" + rel, nil
}

// dirOf maps an intra-module import path to its directory, or "" when the
// path does not belong to the module.
func (l *Loader) dirOf(path string) string {
	if l.cfg.ModulePath == "" {
		dir := filepath.Join(l.cfg.Root, filepath.FromSlash(path))
		if hasGoFiles(dir) {
			return dir
		}
		return ""
	}
	if path == l.cfg.ModulePath {
		return l.cfg.Root
	}
	if rest, ok := strings.CutPrefix(path, l.cfg.ModulePath+"/"); ok {
		return filepath.Join(l.cfg.Root, filepath.FromSlash(rest))
	}
	return ""
}

// loadDir loads (or returns the already-loaded) package in dir.
func (l *Loader) loadDir(dir string) (*Package, error) {
	path, err := l.importPathOf(dir)
	if err != nil {
		return nil, err
	}
	return l.load(path, dir)
}

func (l *Loader) load(path, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("load: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("load: %s: %v", dir, err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	// Load intra-module dependencies first so their types exist.
	for _, imp := range bp.Imports {
		if depDir := l.dirOf(imp); depDir != "" {
			if _, err := l.load(imp, depDir); err != nil {
				return nil, err
			}
		}
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: importerFunc(func(p string) (*types.Package, error) { return l.resolveImport(p) }),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, l.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("load: typechecking %s: %v", path, typeErrs[0])
	}

	pkg := &Package{ImportPath: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	l.order = append(l.order, pkg)
	return pkg, nil
}

// resolveImport serves go/types import requests: intra-module packages come
// from the loader itself, everything else from the compiler's export data
// (falling back to typechecking the standard library from source, which keeps
// the loader working in environments without export data).
func (l *Loader) resolveImport(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if dir := l.dirOf(path); dir != "" {
		pkg, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	pkg, err := l.std.Import(path)
	if err == nil {
		return pkg, nil
	}
	return l.stdSrc.Import(path)
}

type importerFunc func(string) (*types.Package, error)

// Import implements types.Importer.
func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

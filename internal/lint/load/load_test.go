package load_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ccsvm/internal/lint/load"
)

// writeTree materializes files (path → contents) under a fresh temp root.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for path, contents := range files {
		full := filepath.Join(root, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(contents), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// assertDepOrder fails unless every package appears after all of its
// intra-module dependencies, the order the loader typechecks them in.
func assertDepOrder(t *testing.T, pkgs []*load.Package) {
	t.Helper()
	seen := make(map[string]bool)
	byPath := make(map[string]bool, len(pkgs))
	for _, p := range pkgs {
		byPath[p.ImportPath] = true
	}
	for _, p := range pkgs {
		for _, imp := range p.Types.Imports() {
			if byPath[imp.Path()] && !seen[imp.Path()] {
				t.Errorf("package %s precedes its dependency %s", p.ImportPath, imp.Path())
			}
		}
		seen[p.ImportPath] = true
	}
}

func TestModuleRoot(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":        "module example.com/mod\n\ngo 1.24\n",
		"sub/deep/x.go": "package deep\n",
	})
	dir, modPath, err := load.ModuleRoot(filepath.Join(root, "sub", "deep"))
	if err != nil {
		t.Fatal(err)
	}
	// The temp root may itself sit under a symlinked path; compare the
	// discovered root by its go.mod identity rather than string equality.
	if _, err := os.Stat(filepath.Join(dir, "go.mod")); err != nil {
		t.Errorf("returned root %s has no go.mod", dir)
	}
	if modPath != "example.com/mod" {
		t.Errorf("module path = %q, want example.com/mod", modPath)
	}
}

func TestModuleRootMissing(t *testing.T) {
	// An isolated temp dir has no go.mod — unless the temp tree itself sits
	// under a module, which it never does on the platforms CI runs.
	if _, _, err := load.ModuleRoot(t.TempDir()); err == nil {
		t.Skip("a go.mod exists above the temp dir; cannot test the failure path")
	}
}

func TestLoadTestdataMode(t *testing.T) {
	// Testdata mode: ModulePath is empty and bare directory names are import
	// paths — the layout linttest fixtures use.
	root := writeTree(t, map[string]string{
		"base/base.go": "package base\n\n// V is exported data.\nvar V int\n",
		"mid/mid.go":   "package mid\n\nimport \"base\"\n\n// W re-exports base.V.\nvar W = base.V\n",
		"top/top.go":   "package top\n\nimport \"mid\"\n\n// X re-exports mid.W.\nvar X = mid.W\n",
	})
	l := load.New(load.Config{Root: root})
	pkgs, err := l.Load("top")
	if err != nil {
		t.Fatal(err)
	}
	// Loading only "top" must pull in its transitive intra-module
	// dependencies, in dependency order.
	var got []string
	for _, p := range pkgs {
		got = append(got, p.ImportPath)
	}
	want := []string{"base", "mid", "top"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("load order = %v, want %v", got, want)
	}
	assertDepOrder(t, pkgs)
	for _, p := range pkgs {
		if p.Types == nil || p.Info == nil || len(p.Files) == 0 {
			t.Errorf("package %s is missing types, info or syntax", p.ImportPath)
		}
	}
}

func TestLoadModuleMode(t *testing.T) {
	// Module mode: import paths carry the module prefix, and "./..." walks
	// the tree. Package "aa" importing "zz" makes alphabetical walk order
	// disagree with dependency order, so the order property is actually
	// exercised.
	root := writeTree(t, map[string]string{
		"go.mod":   "module example.com/mod\n\ngo 1.24\n",
		"aa/aa.go": "package aa\n\nimport \"example.com/mod/zz\"\n\n// A re-exports zz.Z.\nvar A = zz.Z\n",
		"zz/zz.go": "package zz\n\n// Z is exported data.\nvar Z int\n",
	})
	l := load.New(load.Config{Root: root, ModulePath: "example.com/mod"})
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range pkgs {
		got = append(got, p.ImportPath)
	}
	want := []string{"example.com/mod/zz", "example.com/mod/aa"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("load order = %v, want %v", got, want)
	}
	assertDepOrder(t, pkgs)
}

func TestLoadStdlibImports(t *testing.T) {
	// Standard-library imports resolve through the export-data importer with
	// a source-typechecking fallback; either way the load must succeed and
	// the imported names must typecheck.
	root := writeTree(t, map[string]string{
		"p/p.go": "package p\n\nimport \"fmt\"\n\n// S uses a stdlib symbol so the import chain is exercised.\nvar S = fmt.Sprint(1)\n",
	})
	l := load.New(load.Config{Root: root})
	pkgs, err := l.Load("p")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].ImportPath != "p" {
		t.Fatalf("pkgs = %v", pkgs)
	}
	if pkgs[0].Types.Scope().Lookup("S") == nil {
		t.Error("p.S did not typecheck")
	}
}

func TestLoadImportCycle(t *testing.T) {
	root := writeTree(t, map[string]string{
		"a/a.go": "package a\n\nimport \"b\"\n\n// A depends on b.\nvar A = b.B\n",
		"b/b.go": "package b\n\nimport \"a\"\n\n// B depends on a.\nvar B = a.A\n",
	})
	l := load.New(load.Config{Root: root})
	_, err := l.Load("a")
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("err = %v, want import cycle", err)
	}
}

func TestLoadTypeError(t *testing.T) {
	root := writeTree(t, map[string]string{
		"p/p.go": "package p\n\n// V has a type error.\nvar V int = \"not an int\"\n",
	})
	l := load.New(load.Config{Root: root})
	if _, err := l.Load("p"); err == nil || !strings.Contains(err.Error(), "typechecking") {
		t.Fatalf("err = %v, want typechecking error", err)
	}
}

func TestLoadSkipsTestdataAndHidden(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":             "module example.com/mod\n\ngo 1.24\n",
		"p/p.go":             "package p\n\n// P marks the real package.\nvar P int\n",
		"p/testdata/t/t.go":  "package t\n\nthis is not Go\n",
		"p/.hidden/h/h.go":   "package h\n\nnor this\n",
		"p/_underscore/u.go": "package u\n\nnor this\n",
		"p/vendor/v/v.go":    "package v\n\nnor this\n",
		"p/sub/notgo/x.txt":  "no go files here\n",
		"p/sub/real/real.go": "package real\n\n// R marks a nested package.\nvar R int\n",
	})
	l := load.New(load.Config{Root: root, ModulePath: "example.com/mod"})
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range pkgs {
		got = append(got, p.ImportPath)
	}
	want := []string{"example.com/mod/p", "example.com/mod/p/sub/real"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("walked packages = %v, want %v", got, want)
	}
}

func TestLoadSameLoaderIsIdempotent(t *testing.T) {
	// Loading a package twice through one loader returns the same *Package,
	// so each package is parsed and typechecked once per loader.
	root := writeTree(t, map[string]string{
		"p/p.go": "package p\n\n// P is exported data.\nvar P int\n",
	})
	l := load.New(load.Config{Root: root})
	first, err := l.Load("p")
	if err != nil {
		t.Fatal(err)
	}
	second, err := l.Load("p")
	if err != nil {
		t.Fatal(err)
	}
	if first[0] != second[0] {
		t.Error("reloading returned a different *Package for the same path")
	}
}

package ccsvm_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// TestDocLint fails when an exported symbol in the public facade (the root
// package), in internal/workloads — the two packages contributors extend
// when adding workloads, presets, or overrides — or in the lint suite
// (internal/lint and its subpackages, whose exported Analyzers and helpers
// are the contributor-facing surface of the static-enforcement layer) lacks
// a doc comment. CI runs it as a dedicated step so documentation debt fails
// the build, not just review.
func TestDocLint(t *testing.T) {
	for _, dir := range []string{
		".",
		"internal/workloads",
		"internal/lint",
		"internal/lint/analysis",
		"internal/lint/cfg",
		"internal/lint/dataflow",
		"internal/lint/load",
		"internal/lint/linttest",
	} {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing %s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			for path, file := range pkg.Files {
				lintFile(t, fset, path, file)
			}
		}
	}
}

func lintFile(t *testing.T, fset *token.FileSet, path string, file *ast.File) {
	t.Helper()
	report := func(pos token.Pos, kind, name string) {
		t.Errorf("%s: exported %s %s has no doc comment", fset.Position(pos), kind, name)
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && d.Doc == nil {
				kind := "function"
				if d.Recv != nil {
					kind = "method"
				}
				report(d.Pos(), kind, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
						report(s.Pos(), "type", s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
							report(s.Pos(), "value", name.Name)
						}
					}
				}
			}
		}
	}
}

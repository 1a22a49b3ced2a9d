package ccsvm_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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

// mdRef matches a Markdown file name, with or without a directory.
var mdRef = regexp.MustCompile(`[\w./-]*\w\.md\b`)

// TestDocLintMarkdownRefs fails when a comment in any Go file of the
// repository names a Markdown file that does not exist, relative to the
// repository root: a pointer to a deleted or never-written document tells
// the reader to look for something that is not there.
func TestDocLintMarkdownRefs(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, group := range file.Comments {
			for _, c := range group.List {
				for _, ref := range mdRef.FindAllString(c.Text, -1) {
					if _, err := os.Stat(filepath.FromSlash(ref)); err != nil {
						t.Errorf("%s: comment names %s, which does not exist at the repository root", fset.Position(c.Pos()), ref)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

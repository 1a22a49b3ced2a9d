package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseSrc parses one source file and its annotations.
func parseSrc(t *testing.T, src string) (*token.FileSet, *ast.File, *Annotations) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return fset, f, ParseAnnotations(fset, []*ast.File{f})
}

// errorsContaining returns the annotation errors whose message contains want.
func errorsContaining(ann *Annotations, want string) []AnnotationError {
	var out []AnnotationError
	for _, e := range ann.Errors {
		if strings.Contains(e.Msg, want) {
			out = append(out, e)
		}
	}
	return out
}

// rangeStmts returns the file's range statements in source order.
func rangeStmts(f *ast.File) []*ast.RangeStmt {
	var out []*ast.RangeStmt
	ast.Inspect(f, func(n ast.Node) bool {
		if r, ok := n.(*ast.RangeStmt); ok {
			out = append(out, r)
		}
		return true
	})
	return out
}

func TestParseAnnotationsHappyPath(t *testing.T) {
	fset, f, ann := parseSrc(t, `
// Package x is deterministic.
//
//ccsvm:deterministic
package x

// Sum is order-invariant.
func Sum(m map[int]int) int {
	n := 0
	//ccsvm:orderinvariant
	for _, v := range m {
		n += v
	}
	for range m {
		n++
	}
	return n
}
`)
	if len(ann.Errors) != 0 {
		t.Fatalf("unexpected errors: %v", ann.Errors)
	}
	if !ann.PkgHas(DirDeterministic) {
		t.Errorf("package deterministic directive not recorded")
	}
	rs := rangeStmts(f)
	if !ann.OrderInvariantAt(fset, rs[0].Pos()) {
		t.Errorf("annotated range not order-invariant")
	}
	if ann.OrderInvariantAt(fset, rs[1].Pos()) {
		t.Errorf("unannotated range order-invariant")
	}
}

func TestParseAnnotationsTrailingComment(t *testing.T) {
	fset, f, ann := parseSrc(t, `
package x

func Sum(m map[int]int) (n int) {
	for _, v := range m { //ccsvm:orderinvariant // addition commutes
		n += v
	}
	return n
}
`)
	if len(ann.Errors) != 0 {
		t.Fatalf("unexpected errors: %v", ann.Errors)
	}
	if !ann.OrderInvariantAt(fset, rangeStmts(f)[0].Pos()) {
		t.Errorf("trailing comment broke the directive")
	}
}

func TestParseAnnotationsUnknownDirective(t *testing.T) {
	_, _, ann := parseSrc(t, `
package x

//ccsvm:frobnicate
func F() {}
`)
	if got := errorsContaining(ann, "unknown directive ccsvm:frobnicate (known: deterministic, orderinvariant)"); len(got) != 1 {
		t.Errorf("unknown directive: got errors %v", ann.Errors)
	}
}

func TestParseAnnotationsOnNonFunction(t *testing.T) {
	_, _, ann := parseSrc(t, `
package x

//ccsvm:deterministic
type T int

//ccsvm:deterministic
var V int

// S is a struct.
type S struct {
	//ccsvm:orderinvariant
	F func() int
}
`)
	if got := errorsContaining(ann, "not allowed"); len(got) != 3 {
		t.Errorf("misplaced directives: want 3 errors, got %v", ann.Errors)
	}
}

func TestParseAnnotationsArgErrors(t *testing.T) {
	_, _, ann := parseSrc(t, `
//ccsvm:deterministic always
package x

func F(m map[int]int) {
	//ccsvm:orderinvariant sorted
	for range m {
	}
}
`)
	if got := errorsContaining(ann, "takes no argument"); len(got) != 2 {
		t.Errorf("extra arg errors: want 2, got %v", ann.Errors)
	}
	if ann.PkgHas(DirDeterministic) {
		t.Errorf("malformed deterministic directive must not mark the package")
	}
}

func TestParseAnnotationsSpacedDirective(t *testing.T) {
	_, _, ann := parseSrc(t, `
package x

func F(m map[int]int) {
	// ccsvm:orderinvariant
	for range m {
	}
}
`)
	if got := errorsContaining(ann, "space between"); len(got) != 1 {
		t.Errorf("spaced directive: got errors %v", ann.Errors)
	}
}

func TestParseAnnotationsMisplacedPackageDirective(t *testing.T) {
	_, _, ann := parseSrc(t, `
package x

//ccsvm:deterministic
func F() {
	//ccsvm:deterministic
	_ = 1
}
`)
	if got := errorsContaining(ann, "not allowed on a function"); len(got) != 1 {
		t.Errorf("directive on a function: got errors %v", ann.Errors)
	}
	if got := errorsContaining(ann, "not allowed on a floating comment"); len(got) != 1 {
		t.Errorf("floating package directive: got errors %v", ann.Errors)
	}
	if ann.PkgHas(DirDeterministic) {
		t.Errorf("misplaced deterministic directive must not mark the package")
	}
}

func TestParseAnnotationsFloatingHotPath(t *testing.T) {
	fset, f, ann := parseSrc(t, `
package x

func F(m map[int]int) {
	//ccsvm:hotpath
	for range m {
	}
}
`)
	if got := errorsContaining(ann, "unknown directive ccsvm:hotpath"); len(got) != 1 || len(ann.Errors) != 1 {
		t.Errorf("floating hotpath: got errors %v", ann.Errors)
	}
	if ann.OrderInvariantAt(fset, rangeStmts(f)[0].Pos()) {
		t.Errorf("unknown directive marked the range order-invariant")
	}
}

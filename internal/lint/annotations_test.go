package lint

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// parseSrc typechecks one source file and parses its annotations.
func parseSrc(t *testing.T, src string) (*types.Package, *Annotations) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: importer.Default()}
	pkg, err := conf.Check("x", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return pkg, ParseAnnotations(fset, []*ast.File{f}, info)
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

func TestParseAnnotationsHappyPath(t *testing.T) {
	pkg, ann := parseSrc(t, `
// Package x is deterministic.
//
//ccsvm:deterministic
package x

type P struct{}

// Get hands out a pooled object.
//
//ccsvm:pooled get
func (p *P) Get() *P { return p }

// Dispatch is on the hot path.
//
//ccsvm:hotpath
func Dispatch() {}

// Src is an allocator.
type Src interface {
	// Acquire hands out a pooled object.
	//
	//ccsvm:pooled put
	Acquire(p *P)
}

// Sum is order-invariant.
func Sum(m map[int]int) int {
	n := 0
	//ccsvm:orderinvariant
	for _, v := range m {
		n += v
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
	if !ann.Has(pkg.Scope().Lookup("Dispatch"), DirHotPath) {
		t.Errorf("Dispatch missing hotpath directive")
	}
	get, _, _ := types.LookupFieldOrMethod(pkg.Scope().Lookup("P").Type(), true, pkg, "Get")
	if ann.PooledArg(get) != "get" {
		t.Errorf("P.Get pooled arg = %q, want get", ann.PooledArg(get))
	}
	acquire, _, _ := types.LookupFieldOrMethod(pkg.Scope().Lookup("Src").Type(), true, pkg, "Acquire")
	if ann.PooledArg(acquire) != "put" {
		t.Errorf("Src.Acquire pooled arg = %q, want put", ann.PooledArg(acquire))
	}
}

func TestParseAnnotationsTrailingComment(t *testing.T) {
	pkg, ann := parseSrc(t, `
package x

// Get hands out a pooled object.
//
//ccsvm:pooled get // the caller owns the result
func Get() int { return 0 }
`)
	if len(ann.Errors) != 0 {
		t.Fatalf("unexpected errors: %v", ann.Errors)
	}
	if ann.PooledArg(pkg.Scope().Lookup("Get")) != "get" {
		t.Errorf("trailing comment broke the directive")
	}
}

func TestParseAnnotationsUnknownDirective(t *testing.T) {
	_, ann := parseSrc(t, `
package x

//ccsvm:frobnicate
func F() {}
`)
	if got := errorsContaining(ann, "unknown directive ccsvm:frobnicate"); len(got) != 1 {
		t.Errorf("unknown directive: got errors %v", ann.Errors)
	}
}

func TestParseAnnotationsOnNonFunction(t *testing.T) {
	_, ann := parseSrc(t, `
package x

//ccsvm:hotpath
type T int

//ccsvm:hotpath
var V int

// S is a struct.
type S struct {
	//ccsvm:pooled get
	F func() int
}
`)
	if got := errorsContaining(ann, "not allowed"); len(got) != 3 {
		t.Errorf("misplaced directives: want 3 errors, got %v", ann.Errors)
	}
}

func TestParseAnnotationsArgErrors(t *testing.T) {
	_, ann := parseSrc(t, `
package x

//ccsvm:pooled
func A() {}

//ccsvm:pooled recycle
func B() {}

//ccsvm:hotpath always
func C() {}
`)
	if got := errorsContaining(ann, "exactly one argument"); len(got) != 2 {
		t.Errorf("pooled arg errors: want 2, got %v", ann.Errors)
	}
	if got := errorsContaining(ann, "takes no argument"); len(got) != 1 {
		t.Errorf("extra arg errors: want 1, got %v", ann.Errors)
	}
}

func TestParseAnnotationsSpacedDirective(t *testing.T) {
	_, ann := parseSrc(t, `
package x

// ccsvm:hotpath
func F() {}
`)
	if got := errorsContaining(ann, "space between"); len(got) != 1 {
		t.Errorf("spaced directive: got errors %v", ann.Errors)
	}
}

func TestParseAnnotationsMisplacedPackageDirective(t *testing.T) {
	_, ann := parseSrc(t, `
package x

//ccsvm:deterministic
func F() {}
`)
	if got := errorsContaining(ann, "not allowed on a function"); len(got) != 1 {
		t.Errorf("misplaced package directive: got errors %v", ann.Errors)
	}
	if ann.PkgHas(DirDeterministic) {
		t.Errorf("misplaced deterministic directive must not mark the package")
	}
}

func TestParseAnnotationsFloatingHotPath(t *testing.T) {
	_, ann := parseSrc(t, `
package x

func F() {
	//ccsvm:hotpath
	_ = 1
}
`)
	if got := errorsContaining(ann, "floating comment"); len(got) != 1 {
		t.Errorf("floating hotpath: got errors %v", ann.Errors)
	}
}

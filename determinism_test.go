package ccsvm_test

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The determinism rule. Same-seed runs are bit-identical (ARCHITECTURE.md
// "The determinism contract"), so the simulated code, every package under
// internal/, may not read the wall clock, draw from the global math/rand
// source, start a goroutine, or range over a map with a body whose effects
// depend on Go's randomized iteration order. //ccsvm:orderinvariant, on or
// directly above such a range, records the reviewed claim that its effects
// commute; it is the only //ccsvm: directive, and one that excuses nothing
// is itself a breach. The root facade, cmd/ and examples/ drive the
// simulator from the host and are not checked.

// TestDeterminism checks the rule on the non-test files of every package
// under internal/.
func TestDeterminism(t *testing.T) {
	m := &module{fset: token.NewFileSet(), std: importer.Default(), pkgs: make(map[string]*sourcePkg)}
	var checked []string
	err := filepath.WalkDir("internal", func(dir string, d fs.DirEntry, err error) error {
		switch {
		case err != nil || !d.IsDir():
			return err
		case d.Name() == "testdata" || strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		}
		dir = filepath.ToSlash(dir)
		p, err := m.load("ccsvm/" + dir)
		if err != nil || p == nil {
			return err
		}
		checked = append(checked, dir)
		for _, b := range breaches(m.fset, p.files, p.info) {
			t.Errorf("%s: %s", m.fset.Position(b.pos), b.msg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(checked) < 20 || !slices.Contains(checked, "internal/sim") || !slices.Contains(checked, "internal/gpumem") {
		t.Errorf("checked %d packages %v; want at least 20, internal/sim and internal/gpumem among them", len(checked), checked)
	}
}

// module typechecks the module's own packages from source, each once, and
// imports the standard library from the compiler's export data.
type module struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*sourcePkg // by import path
}

// sourcePkg is one typechecked package of the module.
type sourcePkg struct {
	files []*ast.File
	info  *types.Info
	types *types.Package
}

// Import resolves the imports of the packages the module typechecks.
func (m *module) Import(path string) (*types.Package, error) {
	if path != "ccsvm" && !strings.HasPrefix(path, "ccsvm/") {
		return m.std.Import(path)
	}
	p, err := m.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

// load typechecks the module's package at an import path, or returns nil
// when its directory holds no package.
func (m *module) load(path string) (*sourcePkg, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	dir := "." + strings.TrimPrefix(path, "ccsvm")
	bp, err := build.ImportDir(dir, 0)
	if _, noGo := err.(*build.NoGoError); noGo {
		return nil, nil
	} else if err != nil {
		return nil, err
	}
	p := &sourcePkg{}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	if p.types, p.info, err = typecheck(m.fset, path, p.files, m); err != nil {
		return nil, err
	}
	m.pkgs[path] = p
	return p, nil
}

// typecheck typechecks one package, recording what the rule looks up.
func typecheck(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	pkg, err := (&types.Config{Importer: imp}).Check(path, fset, files, info)
	return pkg, info, err
}

// breach is one place that breaks the determinism rule.
type breach struct {
	pos token.Pos
	msg string
}

// wallClock are the time functions that read the host's clock. randSeeded
// are the math/rand functions that build a seeded generator; every other
// package-level math/rand function draws from the global source.
var (
	wallClock  = []string{"Now", "Since", "Until"}
	randSeeded = []string{"New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8"}
)

// breaches returns a typechecked package's breaches of the determinism rule
// in source order.
func breaches(fset *token.FileSet, files []*ast.File, info *types.Info) []breach {
	var out []breach
	report := func(pos token.Pos, format string, args ...any) {
		out = append(out, breach{pos, fmt.Sprintf(format, args...)})
	}
	for _, file := range files {
		excuses := directives(fset, file, report)
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				report(n.Pos(), "go statement: simulated code runs on the engine's thread and in exec's coroutines")
			case *ast.Ident:
				fn, ok := info.Uses[n].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Signature().Recv() != nil {
					break // methods are fine; the hazards are package-level functions
				}
				switch path := fn.Pkg().Path(); {
				case path == "time" && slices.Contains(wallClock, fn.Name()):
					report(n.Pos(), "wall-clock read time.%s: use the engine's simulated clock", fn.Name())
				case (path == "math/rand" || path == "math/rand/v2") && !slices.Contains(randSeeded, fn.Name()):
					report(n.Pos(), "global math/rand source (%s.%s): draw from a seeded *rand.Rand", fn.Pkg().Name(), fn.Name())
				}
			case *ast.RangeStmt:
				if _, isMap := info.TypeOf(n.X).Underlying().(*types.Map); !isMap {
					break
				}
				line := fset.Position(n.Pos()).Line
				effect := sideEffect(info, n)
				switch {
				case effect == "":
				case excuses[line] != token.NoPos:
					delete(excuses, line)
				case excuses[line-1] != token.NoPos:
					delete(excuses, line-1)
				default:
					report(n.Pos(), "range over map %s has an order-sensitive body (%s): iterate sorted keys, "+
						"or mark it //ccsvm:orderinvariant if the effects commute", types.ExprString(n.X), effect)
				}
			}
			return true
		})
		for _, pos := range excuses {
			report(pos, "//ccsvm:orderinvariant excuses nothing: it belongs on or directly above "+
				"a range over a map whose body has effects")
		}
	}
	slices.SortFunc(out, func(a, b breach) int { return cmp.Compare(a.pos, b.pos) })
	return out
}

// directives returns the line of each //ccsvm:orderinvariant directive in
// the file, and reports every other //ccsvm: or // ccsvm: comment.
func directives(fset *token.FileSet, file *ast.File, report func(token.Pos, string, ...any)) map[int]token.Pos {
	lines := make(map[int]token.Pos)
	for _, group := range file.Comments {
		for _, c := range group.List {
			// A reason may follow: "//ccsvm:orderinvariant // why".
			text, _, _ := strings.Cut(c.Text, " //")
			text = strings.TrimSpace(text)
			if strings.HasPrefix(text, "// ccsvm:") {
				report(c.Pos(), "%q is no directive: write //ccsvm: with no space", text)
				continue
			}
			rest, ok := strings.CutPrefix(text, "//ccsvm:")
			switch {
			case !ok:
			case rest == "orderinvariant":
				lines[fset.Position(c.Pos()).Line] = c.Pos()
			case strings.HasPrefix(rest, "orderinvariant "):
				report(c.Pos(), "//ccsvm:orderinvariant takes no argument")
			default:
				report(c.Pos(), "unknown directive //ccsvm:%s: //ccsvm:orderinvariant is the only one", rest)
			}
		}
	}
	return lines
}

// sideEffect describes the first construct in a map range's body whose
// effect depends on the iteration order, or returns "" if there is none: a
// call other than len, cap, min, max or a conversion, a write to a variable
// declared outside the loop, a channel send, a go or defer statement, a
// return, or a branch to an outer label.
func sideEffect(info *types.Info, rng *ast.RangeStmt) string {
	outside := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.ObjectOf(id)
		return id.Name != "_" && (obj == nil || obj.Pos() < rng.Pos() || obj.Pos() >= rng.End())
	}
	var what string
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if what != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if !pureCall(info, n) {
				what = "it calls " + types.ExprString(n.Fun)
			}
		case *ast.AssignStmt:
			if i := slices.IndexFunc(n.Lhs, outside); i >= 0 {
				what = "it writes " + types.ExprString(n.Lhs[i]) + ", declared outside the loop"
			}
		case *ast.IncDecStmt:
			if outside(n.X) {
				what = "it writes " + types.ExprString(n.X) + ", declared outside the loop"
			}
		case *ast.SendStmt:
			what = "it sends on a channel"
		case *ast.GoStmt:
			what = "it starts a goroutine"
		case *ast.DeferStmt:
			what = "it defers a call"
		case *ast.ReturnStmt:
			what = "it returns from inside the loop"
		case *ast.BranchStmt:
			if n.Label != nil {
				what = "it branches to an outer label"
			}
		}
		return true
	})
	return what
}

// pureCall reports whether a call has no effect: len, cap, min, max or a
// type conversion.
func pureCall(info *types.Info, call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			return slices.Contains([]string{"len", "cap", "min", "max"}, b.Name())
		}
	}
	return info.Types[call.Fun].IsType()
}

// ruleCase is one small package, a single source file typechecked on its
// own, and the breaches the rule must report in it: in source order, by a
// fragment of each message.
type ruleCase struct {
	name, src string
	want      []string
}

// checkRuleCases runs each case as a subtest.
func checkRuleCases(t *testing.T, cases []ruleCase) {
	std := importer.Default()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, "x.go", c.src, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			_, info, err := typecheck(fset, "x", []*ast.File{f}, std)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, b := range breaches(fset, []*ast.File{f}, info) {
				got = append(got, fmt.Sprintf("%s: %s", fset.Position(b.pos), b.msg))
			}
			ok := len(got) == len(c.want)
			for i := 0; ok && i < len(got); i++ {
				ok = strings.Contains(got[i], c.want[i])
			}
			if !ok {
				t.Errorf("breaches:\n%s\nwant %d, containing %q", strings.Join(got, "\n"), len(c.want), c.want)
			}
		})
	}
}

// TestDeterminismRule pins the verdicts of the four bans, and of
// //ccsvm:orderinvariant excusing a map loop.
func TestDeterminismRule(t *testing.T) {
	checkRuleCases(t, []ruleCase{
		{"wall clock", `package x

import "time"

func Clock() time.Duration {
	t := time.Now()
	return time.Since(t)
}`, []string{"wall-clock read time.Now", "wall-clock read time.Since"}},

		{"global rand", `package x

import "math/rand"

func Roll() int { return rand.Intn(6) }`, []string{"global math/rand source (rand.Intn)"}},

		{"seeded rand", `package x

import "math/rand"

func Roll(seed int64) int { return rand.New(rand.NewSource(seed)).Intn(6) }

func Shuffle(xs []int, seed int64) {
	rand.New(rand.NewSource(seed)).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}`, nil},

		{"go statement", `package x

func Spawn(fn func()) { go fn() }`, []string{"go statement"}},

		{"go in a helper that waits", `package x

func launch(fn func()) {
	done := make(chan struct{})
	go func() {
		fn()
		close(done)
	}()
	<-done
}`, []string{"go statement"}},

		{"package without the retired opt-in", `package x

import (
	"math/rand"
	"time"
)

func Wallclock() (time.Time, int) {
	go func() {}()
	return time.Now(), rand.Int()
}`, []string{"go statement", "wall-clock read time.Now", "global math/rand source (rand.Int)"}},

		{"append in a map loop", `package x

func Keys(m map[int]int) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}`, []string{"range over map m has an order-sensitive body (it writes keys"}},

		{"call in a map loop", `package x

func Visit(m map[int]int, visit func(int)) {
	for k := range m {
		visit(k)
	}
}`, []string{"range over map m has an order-sensitive body (it calls visit)"}},

		{"read-only map loop", `package x

func ReadOnly(m map[int]int) {
	for k := range m {
		local := k * 2
		_ = local
	}
}`, nil},

		{"commuting sum", `package x

func Sum(m map[int]int) int {
	total := 0
	//ccsvm:orderinvariant
	for _, v := range m {
		total += v
	}
	return total
}`, nil},

		{"unmarked loop beside a marked one", `package x

func Count(m map[int]int) int {
	n := 0
	//ccsvm:orderinvariant
	for _, v := range m {
		n += v
	}
	for range m {
		n++
	}
	return n
}`, []string{"range over map m has an order-sensitive body (it writes n"}},

		{"sorted-key collection", `package x

import "sort"

func Drain(m map[string]int, visit func(string, int)) {
	keys := make([]string, 0, len(m))
	//ccsvm:orderinvariant
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		visit(k, m[k])
	}
}`, nil},
	})
}

// TestDeterminismDirectives pins the verdicts on the directives themselves:
// where //ccsvm:orderinvariant may sit, and that every other //ccsvm: or
// // ccsvm: comment is an error.
func TestDeterminismDirectives(t *testing.T) {
	checkRuleCases(t, []ruleCase{
		{"trailing directives", `package x

func Drain(m map[int]int) int {
	total := 0
	for _, v := range m { //ccsvm:orderinvariant
		total += v
	}
	for _, v := range m { //ccsvm:orderinvariant // addition commutes
		total += v
	}
	return total
}`, nil},

		{"spaced directive", `package x

// ccsvm:deterministic
func F(m map[int]int) {
	// ccsvm:orderinvariant
	for range m {
	}
}`, []string{`"// ccsvm:deterministic" is no directive`, `"// ccsvm:orderinvariant" is no directive`}},

		{"argument", `//ccsvm:deterministic always
package x

func F(m map[int]int) {
	//ccsvm:orderinvariant sorted
	for range m {
	}
}`, []string{"unknown directive //ccsvm:deterministic always", "//ccsvm:orderinvariant takes no argument"}},

		{"unknown directive", `package x

//ccsvm:frobnicate
func F() {}`, []string{"unknown directive //ccsvm:frobnicate"}},

		{"deterministic is retired", `// Package x was once opted in to the rule.
//
//ccsvm:deterministic
package x

//ccsvm:deterministic
type T int

//ccsvm:deterministic
var V int

//ccsvm:deterministic
func F() {
	//ccsvm:deterministic
	_ = 1
}`, slices.Repeat([]string{"unknown directive //ccsvm:deterministic"}, 5)},

		{"launchpath enginectx hotpath pooled and allocok are retired", `package x

//ccsvm:launchpath
func A() {}

//ccsvm:enginectx
func B() {}

//ccsvm:pooled get
func C() {}

func D(m map[int]int) []int {
	//ccsvm:hotpath
	for range m {
	}
	return make([]int, 1) //ccsvm:allocok
}`, []string{"unknown directive //ccsvm:launchpath", "unknown directive //ccsvm:enginectx",
			"unknown directive //ccsvm:pooled get", "unknown directive //ccsvm:hotpath", "unknown directive //ccsvm:allocok"}},

		{"orderinvariant on a declaration", `package x

//ccsvm:orderinvariant
type T int

type S struct {
	//ccsvm:orderinvariant
	F func()
}`, slices.Repeat([]string{"//ccsvm:orderinvariant excuses nothing"}, 2)},

		{"orderinvariant above a slice range", `package x

func Sum(xs []int) (n int) {
	//ccsvm:orderinvariant
	for _, x := range xs {
		n += x
	}
	return n
}`, []string{"//ccsvm:orderinvariant excuses nothing"}},

		{"orderinvariant above no statement", `package x

func F(m map[int]int) {
	for range m {
	}
	//ccsvm:orderinvariant
}`, []string{"//ccsvm:orderinvariant excuses nothing"}},

		{"orderinvariant above a read-only map loop", `package x

func F(m map[int]int) {
	//ccsvm:orderinvariant
	for k := range m {
		_ = k
	}
}`, []string{"//ccsvm:orderinvariant excuses nothing"}},
	})
}

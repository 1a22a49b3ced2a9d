package lint

import (
	"go/ast"
	"go/types"

	"ccsvm/internal/lint/analysis"
)

// Determinism reports nondeterminism hazards in packages annotated
// //ccsvm:deterministic: wall-clock reads, use of the global math/rand
// source, any goroutine launch (workload threads are exec's iter.Pull
// coroutines, so no go statement is needed anywhere in simulated code), and
// iteration over maps whose loop body has side effects (which then occur in
// Go's randomized map order). Same-seed runs of the simulator must be
// bit-identical — the determinism contract of ARCHITECTURE.md — and each of
// these constructs has broken it in a past PR.
var Determinism = &analysis.Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock, global rand, stray goroutines and order-sensitive map iteration\n" +
		"in packages annotated //ccsvm:deterministic",
	Run: runDeterminism,
}

// wallClockFuncs are the time package functions that read the host clock.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// randConstructors are the math/rand functions that build an explicitly
// seeded generator; everything else at package level draws from the global
// source, whose sequence depends on what else ran before.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runDeterminism(pass *analysis.Pass) (any, error) {
	ann := ParseAnnotations(pass.Fset, pass.Files)
	if !ann.PkgHas(DirDeterministic) {
		return nil, nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "goroutine launched in a deterministic package; "+
					"simulated code must stay on the engine's thread")
			case *ast.Ident:
				checkDeterminismIdent(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, ann, n)
			}
			return true
		})
	}
	return nil, nil
}

// checkDeterminismIdent flags references to wall-clock and global-rand
// functions. Working on identifier uses (rather than call expressions) also
// catches the functions being passed as values.
func checkDeterminismIdent(pass *analysis.Pass, id *ast.Ident) {
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods are fine; the hazards are package-level functions
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClockFuncs[fn.Name()] {
			pass.Reportf(id.Pos(), "wall-clock read time.%s in a deterministic package; "+
				"use the engine's simulated clock", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[fn.Name()] {
			pass.Reportf(id.Pos(), "global math/rand source (%s.%s) in a deterministic package; "+
				"draw from a seeded *rand.Rand instead", fn.Pkg().Name(), fn.Name())
		}
	}
}

// checkMapRange flags range statements over maps whose body has side effects:
// the body then runs in Go's randomized iteration order, and anything it does
// to shared state (schedule events, send messages, append to slices) wobbles
// between same-seed runs. A //ccsvm:orderinvariant directive on the statement
// suppresses the check — a reviewed claim that the body's effects commute.
func checkMapRange(pass *analysis.Pass, ann *Annotations, rng *ast.RangeStmt) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	if ann.OrderInvariantAt(pass.Fset, rng.Pos()) {
		return
	}
	if n, what := firstSideEffect(pass, rng); n != nil {
		pass.Reportf(rng.Pos(), "iteration over map %s has an order-sensitive body (%s); "+
			"iterate a sorted key slice, or annotate //ccsvm:orderinvariant if the effects commute",
			exprString(rng.X), what)
	}
}

// firstSideEffect scans a map-range body for constructs whose effect depends
// on iteration order: calls (other than a few pure builtins and conversions),
// writes to variables declared outside the loop, channel operations, and
// control transfers out of the loop.
func firstSideEffect(pass *analysis.Pass, rng *ast.RangeStmt) (ast.Node, string) {
	var found ast.Node
	var desc string
	isLoopLocal := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		if !ok {
			return false
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			obj = pass.TypesInfo.Defs[id]
		}
		return obj != nil && obj.Pos() >= rng.Pos() && obj.Pos() < rng.End()
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if isPureBuiltinOrConversion(pass, n) {
				return true
			}
			found, desc = n, "it calls "+exprString(n.Fun)
			return false
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if !isLoopLocal(lhs) && !isBlank(lhs) {
					found, desc = n, "it writes "+exprString(lhs)+" declared outside the loop"
					return false
				}
			}
		case *ast.IncDecStmt:
			if !isLoopLocal(n.X) {
				found, desc = n, "it writes "+exprString(n.X)+" declared outside the loop"
				return false
			}
		case *ast.SendStmt:
			found, desc = n, "it sends on a channel"
			return false
		case *ast.GoStmt:
			found, desc = n, "it launches a goroutine"
			return false
		case *ast.DeferStmt:
			found, desc = n, "it defers a call"
			return false
		case *ast.ReturnStmt:
			found, desc = n, "it returns from inside the loop"
			return false
		case *ast.BranchStmt:
			if n.Label != nil {
				found, desc = n, "it branches to an outer label"
				return false
			}
		}
		return true
	})
	if found == nil {
		return nil, ""
	}
	return found, desc
}

// isPureBuiltinOrConversion reports whether the call cannot have an
// order-sensitive effect: len/cap/min/max builtins and type conversions.
func isPureBuiltinOrConversion(pass *analysis.Pass, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := pass.TypesInfo.Uses[fun].(*types.Builtin); ok {
			switch b.Name() {
			case "len", "cap", "min", "max":
				return true
			}
			return false
		}
	}
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		return true
	}
	return false
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// exprString renders a short expression for diagnostics.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.UnaryExpr:
		return e.Op.String() + exprString(e.X)
	default:
		return "expression"
	}
}

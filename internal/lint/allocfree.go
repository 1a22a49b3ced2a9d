package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"ccsvm/internal/lint/analysis"
)

// AllocFree extends the hot-path contract from "no capturing closures at
// schedule sites" to "no heap allocation at all": inside functions annotated
// //ccsvm:hotpath it flags every construct that allocates (or may allocate)
// on the steady-state path — make/new, append growth, slice, map and escaping
// composite literals, capturing closures, interface boxing of non-pointer
// values, non-constant string concatenation, string<->[]byte conversions and
// any call into package fmt. Reviewed exceptions (amortized pool-chunk
// refills, slices that grow to a high-water mark and are reused) are
// annotated //ccsvm:allocok on the same or previous line. Arguments being
// marshaled for a panic are exempt: the crash path is not the hot path.
var AllocFree = &analysis.Analyzer{
	Name: "allocfree",
	Doc: "forbid heap-allocating constructs inside //ccsvm:hotpath functions unless\n" +
		"annotated //ccsvm:allocok",
	Run: runAllocFree,
}

func runAllocFree(pass *analysis.Pass) (any, error) {
	ann := ParseAnnotations(pass.Fset, pass.Files, pass.TypesInfo)
	af := &allocChecker{pass: pass, ann: ann}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if obj == nil || !ann.Has(obj, DirHotPath) {
				continue
			}
			af.results = obj.Type().(*types.Signature).Results()
			af.check(fd.Body)
		}
	}
	return nil, nil
}

type allocChecker struct {
	pass    *analysis.Pass
	ann     *Annotations
	results *types.Tuple // result types of the function being checked
}

// report emits one finding unless an //ccsvm:allocok directive covers the
// node's line.
func (af *allocChecker) report(n ast.Node, format string, args ...any) {
	if af.ann.AllocOkAt(af.pass.Fset, n.Pos()) {
		return
	}
	af.pass.Reportf(n.Pos(), format, args...)
}

// check walks one hot function body. Function literal bodies are not
// descended into (creating a non-capturing literal is free, and a capturing
// one is flagged at the creation site); panic call arguments are skipped
// because the crash path is not the hot path.
func (af *allocChecker) check(body *ast.BlockStmt) {
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if captured := capturedVars(af.pass, n); len(captured) > 0 {
				af.report(n, "capturing closure allocates on the hot path (captures %s); "+
					"bind the callback once and pass state through its argument",
					strings.Join(captured, ", "))
			}
			return false

		case *ast.CallExpr:
			return af.call(n)

		case *ast.CompositeLit:
			af.compositeLit(n, false)
			return true

		case *ast.UnaryExpr:
			if n.Op.String() == "&" {
				if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					af.compositeLit(lit, true)
					// Descend into the literal's elements but not the
					// literal itself (already reported).
					for _, el := range lit.Elts {
						ast.Inspect(el, visit)
					}
					return false
				}
			}
			return true

		case *ast.BinaryExpr:
			if n.Op.String() == "+" && !af.isConstant(n) {
				if t := af.typeOf(n); t != nil && isString(t) {
					af.report(n, "string concatenation allocates on the hot path")
				}
			}
			return true

		case *ast.AssignStmt:
			af.assign(n)
			return true

		case *ast.ValueSpec:
			if n.Type != nil {
				target := af.pass.TypesInfo.TypeOf(n.Type)
				for _, v := range n.Values {
					af.boxCheck(v, target)
				}
			}
			return true

		case *ast.SendStmt:
			if ch := af.typeOf(n.Chan); ch != nil {
				if c, ok := types.Unalias(ch).Underlying().(*types.Chan); ok {
					af.boxCheck(n.Value, c.Elem())
				}
			}
			return true

		case *ast.ReturnStmt:
			if af.results != nil && len(n.Results) == af.results.Len() {
				for i, r := range n.Results {
					af.boxCheck(r, af.results.At(i).Type())
				}
			}
			return true
		}
		return true
	}
	ast.Inspect(body, visit)
}

// call handles one call expression: builtin allocators, fmt calls,
// allocating conversions, and interface boxing of arguments. It returns
// whether the walker should descend into the call's children.
func (af *allocChecker) call(call *ast.CallExpr) bool {
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := af.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				af.report(call, "make allocates on the hot path; reuse preallocated storage")
			case "new":
				af.report(call, "new allocates on the hot path; reuse a pooled object")
			case "append":
				af.report(call, "append may grow its backing array on the hot path; "+
					"preallocate capacity or annotate //ccsvm:allocok if amortized")
			case "panic":
				return false // crash path: arguments may allocate freely
			}
			return true
		}
	}

	// Conversions: T(x) where T is a type.
	if tv, ok := af.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to := tv.Type
		from := af.typeOf(call.Args[0])
		if from != nil && allocatingConversion(from, to) {
			af.report(call, "conversion between string and byte/rune slice copies and "+
				"allocates on the hot path")
		}
		af.boxCheck(call.Args[0], to)
		return true
	}

	// Calls into package fmt reflect and allocate.
	if fn := calleeFunc(af.pass, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		af.report(call, "fmt.%s reflects and allocates on the hot path", fn.Name())
	}

	// Interface boxing of arguments.
	var sig *types.Signature
	if ft := af.typeOf(call.Fun); ft != nil {
		sig, _ = ft.Underlying().(*types.Signature)
	}
	if sig != nil {
		params := sig.Params()
		for i, arg := range call.Args {
			var pt types.Type
			switch {
			case sig.Variadic() && i >= params.Len()-1:
				if call.Ellipsis.IsValid() {
					pt = params.At(params.Len() - 1).Type() // []T passed whole
				} else if s, ok := types.Unalias(params.At(params.Len() - 1).Type()).Underlying().(*types.Slice); ok {
					pt = s.Elem()
				}
			case i < params.Len():
				pt = params.At(i).Type()
			}
			af.boxCheck(arg, pt)
		}
	}
	return true
}

// assign flags interface boxing through assignments to interface-typed
// locations.
func (af *allocChecker) assign(n *ast.AssignStmt) {
	if len(n.Lhs) != len(n.Rhs) {
		return
	}
	for i, lhs := range n.Lhs {
		if id, ok := lhs.(*ast.Ident); ok {
			if af.pass.TypesInfo.Defs[id] != nil {
				continue // new variable: its type is the RHS type, no boxing
			}
		}
		af.boxCheck(n.Rhs[i], af.typeOf(lhs))
	}
}

// compositeLit flags slice and map literals (which allocate their backing
// store) and address-taken literals (which escape to the heap).
func (af *allocChecker) compositeLit(lit *ast.CompositeLit, addressTaken bool) {
	t := af.typeOf(lit)
	if t == nil {
		return
	}
	switch types.Unalias(t).Underlying().(type) {
	case *types.Slice:
		af.report(lit, "slice literal allocates its backing array on the hot path")
	case *types.Map:
		af.report(lit, "map literal allocates on the hot path")
	default:
		if addressTaken {
			af.report(lit, "address-taken composite literal escapes to the heap on the hot path")
		}
	}
}

// boxCheck reports when expr, of concrete non-pointer-shaped type, is placed
// into an interface-typed location: the conversion boxes the value on the
// heap.
func (af *allocChecker) boxCheck(expr ast.Expr, target types.Type) {
	if expr == nil || target == nil {
		return
	}
	if !types.IsInterface(types.Unalias(target).Underlying()) {
		return
	}
	tv, ok := af.pass.TypesInfo.Types[expr]
	if !ok || tv.Type == nil || tv.IsNil() || tv.Value != nil {
		return // untyped nil and constants are out of scope
	}
	src := tv.Type
	if types.IsInterface(types.Unalias(src).Underlying()) {
		return // interface to interface: no new box
	}
	if pointerShaped(src) {
		return
	}
	af.report(expr, "interface boxing of %s allocates on the hot path; "+
		"pass a pointer-shaped value instead", exprString(expr))
}

func (af *allocChecker) typeOf(e ast.Expr) types.Type {
	if e == nil {
		return nil
	}
	return af.pass.TypesInfo.TypeOf(e)
}

func (af *allocChecker) isConstant(e ast.Expr) bool {
	tv, ok := af.pass.TypesInfo.Types[e]
	return ok && tv.Value != nil
}

// calleeFunc resolves a call's static callee, or nil.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// pointerShaped reports whether values of the type fit in a pointer word and
// convert to an interface without a heap allocation.
func pointerShaped(t types.Type) bool {
	switch u := types.Unalias(t).Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

func isString(t types.Type) bool {
	b, ok := types.Unalias(t).Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// allocatingConversion reports string<->[]byte and string<->[]rune
// conversions, which copy their contents into fresh storage.
func allocatingConversion(from, to types.Type) bool {
	return (isString(from) && isByteOrRuneSlice(to)) ||
		(isByteOrRuneSlice(from) && isString(to))
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := types.Unalias(t).Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := types.Unalias(s.Elem()).Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// capturedVars returns the names of local variables of the enclosing function
// that the literal captures (references to objects declared outside the
// literal but below package scope). A literal that captures nothing compiles
// to a static function value and is allowed on hot paths.
func capturedVars(pass *analysis.Pass, lit *ast.FuncLit) []string {
	seen := make(map[string]bool)
	var names []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // the literal's own parameters and locals
		}
		if v.Parent() == pass.Pkg.Scope() || v.Parent() == types.Universe {
			return true // package-level variables are not captures
		}
		if v.Pkg() != pass.Pkg {
			return true
		}
		if !seen[v.Name()] {
			seen[v.Name()] = true
			names = append(names, v.Name())
		}
		return true
	})
	sort.Strings(names)
	return names
}

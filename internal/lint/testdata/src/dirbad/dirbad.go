// Package dirbad exercises the ccsvmdirective hygiene analyzer: unknown,
// malformed and misplaced directives are all errors, never silently ignored.
package dirbad

//ccsvm:frobnicate // want "unknown directive"
func Unknown() {}

// The retired goroutine-launch exemption is unknown too.
//
//ccsvm:launchpath // want "unknown directive"
func Retired() {}

// So is the retired engine-context marker: RaiseInterrupt checks its caller
// at run time instead.
//
//ccsvm:enginectx // want "unknown directive"
func RetiredEngineCtx() {}

// So are the retired hot-path and pool markers: allocation tests and the
// machines' run-end pool check enforce both at run time.
//
//ccsvm:hotpath // want "unknown directive"
func RetiredHotPath() {}

//ccsvm:pooled get // want "unknown directive"
func RetiredPooled() {}

// RetiredAllocOk carries the retired allocation exemption.
func RetiredAllocOk() []int {
	return make([]int, 1) //ccsvm:allocok // want "unknown directive"
}

// ExtraArg iterates a map.
func ExtraArg(m map[int]int) {
	//ccsvm:orderinvariant always // want "takes no argument"
	for range m {
	}
}

//ccsvm:orderinvariant // want "not allowed on a type"
type T int

//ccsvm:deterministic // want "not allowed on a function"
func Misplaced() {}

// ccsvm:deterministic // want "space between"
func Spaced() {}

// S has an annotated struct field.
type S struct {
	//ccsvm:orderinvariant // want "not allowed on a struct field"
	F func()
}

// Floating directives may only be floating kinds.
func Body() {
	//ccsvm:deterministic // want "not allowed on a floating comment"
	_ = 1
}

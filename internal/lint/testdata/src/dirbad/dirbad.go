// Package dirbad exercises the ccsvmdirective hygiene analyzer: unknown,
// malformed and misplaced directives are all errors, never silently ignored.
package dirbad

//ccsvm:frobnicate // want "unknown directive"
func Unknown() {}

// The retired goroutine-launch exemption is unknown too.
//
//ccsvm:launchpath // want "unknown directive"
func Retired() {}

//ccsvm:pooled // want "exactly one argument"
func MissingArg() {}

//ccsvm:pooled recycle // want "exactly one argument"
func BadArg() {}

//ccsvm:hotpath always // want "takes no argument"
func ExtraArg() {}

//ccsvm:enginectx // want "not allowed on a type"
type T int

//ccsvm:deterministic // want "not allowed on a function"
func Misplaced() {}

// ccsvm:hotpath // want "space between"
func Spaced() {}

// S has an annotated struct field, which is invalid even for a func-typed
// field.
type S struct {
	//ccsvm:hotpath // want "not allowed on a struct field"
	F func()
}

// Floating directives may only be floating kinds.
func Body() {
	//ccsvm:enginectx // want "not allowed on a floating comment"
	_ = 1
}

// Package allochot exercises the allocfree analyzer: every heap-allocating
// construct inside a //ccsvm:hotpath function is flagged.
package allochot

import "fmt"

// Point is a plain value type.
type Point struct {
	X, Y int
}

// box is an interface-typed package variable; storing a non-pointer value
// into it boxes the value.
var box any

// Consume keeps results alive so the fixtures compile.
func Consume(args ...any) {}

// Hot is the annotated hot path with one of each allocating construct.
//
//ccsvm:hotpath
func Hot(n int, name string, buf []byte, ch chan any) {
	s := make([]int, n)                  // want "make allocates"
	p := new(int)                        // want "new allocates"
	buf = append(buf, 1)                 // want "append may grow its backing array"
	f := func() int { return n }         // want "capturing closure allocates on the hot path \\(captures n\\)"
	xs := []int{1, 2, 3}                 // want "slice literal allocates its backing array"
	m := map[int]int{1: 2}               // want "map literal allocates"
	pt := &Point{X: 1, Y: 2}             // want "address-taken composite literal escapes"
	msg := name + "!"                    // want "string concatenation allocates"
	bs := []byte(name)                   // want "conversion between string and byte/rune slice"
	box = n                              // want "interface boxing of n allocates"
	ch <- n                              // want "interface boxing of n allocates"
	Consume(s, p, f, xs, m, pt, msg, bs) // want "interface boxing of s allocates" "interface boxing of xs allocates" "interface boxing of msg allocates" "interface boxing of bs allocates"
	_ = fmt.Sprintf("%d", 1)             // want "fmt.Sprintf reflects and allocates"
}

// HotReturn boxes its concrete result into an interface return value.
//
//ccsvm:hotpath
func HotReturn(p Point) any {
	return p // want "interface boxing of p allocates"
}

// HotVar boxes through an explicitly typed var declaration.
//
//ccsvm:hotpath
func HotVar(n int) {
	var v any = n // want "interface boxing of n allocates"
	_ = v
}

// Engine stands in for the simulation engine's scheduling API.
type Engine struct{}

// At schedules fn at an absolute time.
func (e *Engine) At(when int64, fn func()) {}

// HotSchedule hands the engine a closure over n: one allocation per event.
//
//ccsvm:hotpath
func HotSchedule(e *Engine, n int) {
	e.At(0, func() { _ = n }) // want "capturing closure allocates on the hot path \\(captures n\\)"
}

// Cold performs the same allocations without the annotation; nothing is
// flagged.
func Cold(n int, name string) ([]int, string) {
	s := make([]int, n)
	return append(s, 1), name + "!"
}

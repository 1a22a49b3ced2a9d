// Package det exercises the determinism analyzer: wall-clock reads, global
// math/rand, stray goroutines, and order-sensitive map iteration are all
// flagged in a package annotated deterministic.
//
//ccsvm:deterministic
package det

import (
	"math/rand"
	"sort"
	"time"
)

// Clock reads wall-clock time.
func Clock() time.Duration {
	t := time.Now()      // want "wall-clock read time.Now"
	return time.Since(t) // want "wall-clock read time.Since"
}

// Roll uses the globally seeded math/rand source.
func Roll() int {
	return rand.Intn(6) // want "global math/rand"
}

// RollSeeded uses an explicitly seeded local source and is fine.
func RollSeeded(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(6)
}

// Spawn launches a goroutine.
func Spawn(fn func()) {
	go fn() // want "goroutine launched in a deterministic package"
}

// launch runs fn on a goroutine and waits for it. Waiting does not make the
// launch deterministic, and no function is exempt.
func launch(fn func()) {
	done := make(chan struct{})
	go func() { // want "goroutine launched in a deterministic package"
		fn()
		close(done)
	}()
	<-done
}

// Sum iterates a map with an order-sensitive body: it appends to a slice
// declared outside the loop, so the result depends on iteration order.
func Sum(m map[int]int) []int {
	var keys []int
	for k := range m { // want "iteration over map"
		keys = append(keys, k)
	}
	return keys
}

// SumInvariant carries the same shape but is annotated order-invariant
// (integer addition commutes), so it is not flagged.
func SumInvariant(m map[int]int) int {
	total := 0
	//ccsvm:orderinvariant
	for _, v := range m {
		total += v
	}
	return total
}

// SortedKeys materialises and sorts the keys before acting on them; the body
// of the map range only builds the key slice, which is still order-sensitive,
// so the canonical clean form annotates the collection loop.
func SortedKeys(m map[int]string) []string {
	keys := make([]int, 0, len(m))
	//ccsvm:orderinvariant
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}

// ReadOnly has no side effects in the loop body and is not flagged.
func ReadOnly(m map[int]int) {
	for k := range m {
		local := k * 2
		_ = local
	}
}

var _ = launch

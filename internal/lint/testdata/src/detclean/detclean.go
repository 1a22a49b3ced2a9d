// Package detclean is a deterministic package with no violations: seeded
// randomness, sorted map iteration, and no goroutine launches.
//
//ccsvm:deterministic
package detclean

import (
	"math/rand"
	"sort"
)

// Shuffle permutes xs with an explicitly seeded source.
func Shuffle(xs []int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// Drain visits map entries in sorted-key order.
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
}

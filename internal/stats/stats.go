// Package stats provides the report formatting shared by the experiment
// harness and the machines' Metrics() reductions. Component counters are
// plain fields of the components that own them; each machine's Metrics()
// sums them over its component lists.
package stats

// AddRate records hits/(hits+misses) under key when there was any traffic
// at all; untouched structures report no rate rather than a misleading
// zero. The machines' Metrics() reductions use it to derive hit rates from
// counter pairs.
func AddRate(out map[string]float64, key string, hits, misses uint64) {
	if total := hits + misses; total > 0 {
		out[key] = float64(hits) / float64(total)
	}
}

// Registry holds nothing. Components no longer register named counters, but
// the benchmark module's torus probe (perfbench/probes.go) still passes a
// Registry to noc.NewTorus, which ignores it; delete both together.
type Registry struct{}

// NewRegistry returns an empty Registry.
func NewRegistry(string) *Registry { return &Registry{} }

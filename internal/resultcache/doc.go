// Package resultcache is the content-addressed store behind memoized
// simulation: Results keyed by the SHA-256 of their RunSpec's canonical
// encoding (ccsvm.RunSpec.CanonicalBytes). Because every run is
// bit-deterministic (ARCHITECTURE.md, "The determinism contract"), a cache
// hit is indistinguishable from re-simulating — the cache turns repeated
// design-space queries from O(simulation) into O(lookup).
//
// The cache is two tiers. The in-memory tier is a bounded LRU over the
// encoded record bytes; the optional on-disk tier persists records as
// hash-sharded JSON files (dir/ab/abcdef….json) written with
// write-temp-then-rename so concurrent writers never expose a partial file.
// Reads are corruption-tolerant: a truncated, garbled, or wrong-version
// record is a miss (counted, and the file removed), never an error — the
// simulator is always available to recompute.
//
// Get decodes a fresh Result on every hit, so callers can never alias or
// mutate a cached entry, and a cached Result is byte-identical (under the
// record encoding) to the freshly simulated Result that produced it — the
// property the service-level tests pin down.
//
// Hit/miss/byte traffic is counted in fields guarded by the cache lock;
// Stats returns a snapshot and is safe to call concurrently.
package resultcache

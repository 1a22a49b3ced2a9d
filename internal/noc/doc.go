// Package noc models the on-chip interconnection network of the CCSVM chip:
// a 2D torus with dimension-order routing, per-hop router latency, and
// per-link serialization at the configured link bandwidth (12 GB/s in the
// paper's Table 2).
//
//ccsvm:deterministic
package noc

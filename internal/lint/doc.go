// Package lint is the ccsvm static-analysis suite: compile-time enforcement
// of the determinism contract the simulator's results rest on.
//
// The suite contains one analyzer plus a directive validator, both driven by
// //ccsvm: annotations in the source (see ARCHITECTURE.md "Static
// enforcement" for the contributor-facing description):
//
//   - determinism: packages annotated //ccsvm:deterministic must not read the
//     wall clock, use the global math/rand source, launch goroutines, or
//     iterate maps with order-sensitive bodies; //ccsvm:orderinvariant marks
//     a map range whose effects commute.
//   - ccsvmdirective: malformed, unknown or misplaced //ccsvm: directives are
//     errors, so the vocabulary cannot silently rot.
//
// Rules that only show at run time are checked there instead: the cores'
// engine-context rule for RaiseInterrupt, the allocation-free op path and
// the coherence message pool's balance (ARCHITECTURE.md "Verification").
//
// cmd/ccsvm-lint runs the suite over the repository and is wired into CI; the
// analyzers are built on the stdlib-only framework in internal/lint/analysis
// and the loader in internal/lint/load.
package lint

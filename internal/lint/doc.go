// Package lint is the ccsvm static-analysis suite: compile-time enforcement
// of the invariants the simulator's correctness and performance rest on,
// which until this package existed lived only in prose and runtime stress
// tests.
//
// The suite contains four analyzers plus a directive validator, all driven by
// //ccsvm: annotations in the source (see ARCHITECTURE.md "Static
// enforcement" for the contributor-facing description):
//
//   - determinism: packages annotated //ccsvm:deterministic must not read the
//     wall clock, use the global math/rand source, launch goroutines, or
//     iterate maps with order-sensitive bodies.
//   - poolownership: objects obtained from //ccsvm:pooled get sources must be
//     released or transferred on every control-flow path, and never released
//     twice — checked flow-sensitively over per-function control-flow graphs
//     (internal/lint/cfg) with a dataflow solver (internal/lint/dataflow), so
//     branches, loops, defers and converging paths are tracked precisely.
//   - enginectx: functions annotated //ccsvm:enginectx must not be reachable
//     from workload-goroutine entry points (arguments of //ccsvm:threadentry
//     APIs); calling them from a workload deadlocks the machine.
//   - allocfree: functions annotated //ccsvm:hotpath must not contain
//     heap-allocating constructs at all — make/new/append, slice, map and
//     escaping composite literals, capturing closures (those passed to the
//     engine's At/Schedule family included), interface boxing of
//     non-pointer values, string concatenation and fmt calls — unless a
//     reviewed //ccsvm:allocok annotation marks the line as amortized.
//   - ccsvmdirective: malformed, unknown or misplaced //ccsvm: directives are
//     errors, so the vocabulary cannot silently rot.
//
// cmd/ccsvm-lint runs the suite over the repository and is wired into CI; the
// analyzers are built on the stdlib-only framework in internal/lint/analysis
// and the loader in internal/lint/load, and findings can be emitted as text,
// JSON or SARIF for machine consumption.
package lint

// Package memtest is the coherence-conformance and memory-consistency stress
// subsystem: it drives the full CCSVM stack (CPU and MTTOP cores, private
// L1s, the banked L2/directory, the torus and DRAM) with generated concurrent
// load/store/atomic sequences over a small shared address set and validates
// three properties:
//
//  1. Data-value correctness — a per-address last-writer oracle checks every
//     load against shadow memory mirroring the simulator's functional store,
//     and every atomic RMW's returned old value must extend the address's
//     linearization chain exactly.
//  2. Protocol invariants — sampled at quiesce points: at most one owner per
//     line, no writer coexisting with readers, the directory's state and
//     sharer vector consistent with the actual L1 states, and every
//     controller drained. core.Machine.RunProgram fails a round that leaks
//     or double-releases a pooled Msg or Event.
//  3. Determinism — the same seed must produce a bit-identical event trace
//     (sim.Engine's trace hash) and final memory image.
//
// The op sequences are pure data (Program), so a failing run can be
// minimized by Shrink into a directed litmus case and emitted as reproducible
// Go source. cmd/ccsvm-stress is the CLI front end; FuzzProtocol feeds
// arbitrary byte-decoded programs through the same harness.
package memtest

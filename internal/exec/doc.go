// Package exec provides the execution-driven bridge between workload code
// (ordinary Go functions) and the timing models of the simulated cores. Each
// software thread runs on an iter.Pull coroutine and communicates with the
// single-threaded simulation engine through a strict, deterministic
// handshake: the thread produces one operation at a time (a load, store,
// atomic, compute delay, or syscall) and is resumed only once the core model
// reports the operation complete at some simulated time.
//
// Gate is the scheduler behind that handshake. Control moves between Drive,
// the holder thread that dispatches events while its own operation is in
// flight, and nested activations by direct coroutine switches; no goroutine
// is ever runnable alongside another, and the package starts none.
//
// The gate also owns its threads. NewThread hands out a thread whose earlier
// use ended before it builds one: the gate takes every thread back when a
// run ends with all of them finished (RecycleThreads), and machines carry
// the threads to their next machine through their arena (DrainThreads,
// SeedThreads). A recycled thread keeps the records its runtimes attached
// (RecordOf), one per runtime, which each runtime refills.
//
// The coroutines are kept apart from the threads, in a pool per gate (see
// Coroutine). A launch borrows the coroutine handed back last and calls
// iter.Pull only when the pool is empty; a coroutine hands itself back once
// its thread's function has returned and its exit path has run, and Kill
// ends it instead. Machines carry the pool to their next machine through
// their arena (DrainCoroutines, SeedCoroutines), and a device runtime's
// thread formats its name only when read (NewNumberedThread), so starting
// a thread on a warm machine allocates nothing. A parked coroutine is a
// live goroutine: it outlives its thread and the Run call that started it,
// but not its owner. A ccsvm.Runner's coroutines end in a GC cleanup once
// the Runner is dropped; any other arena owner ends them with the arena's
// StopCoroutines, and a machine without an arena at Shutdown
// (StopCoroutines). An ended coroutine leaves its pool for good.
//
// The gate also runs op sequences on a thread's behalf. A Batch holds loads,
// stores and computes the thread already knows (a kernel's argument
// prologue, a dot product's loads); a Context.Poll32 loop spins on a word in
// shared memory (xthreads' wait, barrier and mttop_malloc). Either issues the
// same ops as the open-coded sequence, but the gate records each loaded
// value and publishes the next op itself, and the thread's coroutine resumes
// only once the sequence ends.
//
// This is the same execution-driven style the paper's gem5 evaluation uses,
// with Go functions standing in for the x86/Alpha-like binaries.
package exec

// Package exec provides the execution-driven bridge between workload code
// (ordinary Go functions) and the timing models of the simulated cores. Each
// software thread runs as an iter.Pull coroutine and communicates with the
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
// Context.Poll32 is the one loop the gate runs on a thread's behalf: a
// spin-wait on a word in shared memory (xthreads' wait, barrier and
// mttop_malloc) issues the same loads and pauses as the open-coded loop, but
// the gate tests each loaded value and publishes the next op itself, and the
// thread's coroutine resumes only with the load that ends the loop.
//
// This is the same execution-driven style the paper's gem5 evaluation uses,
// with Go functions standing in for the x86/Alpha-like binaries.
//
//ccsvm:deterministic
package exec

package exec

import (
	"fmt"
	"math"

	"ccsvm/internal/mem"
)

// Context is the interface workload code uses to interact with the simulated
// machine. Every method blocks (in host terms) until the simulated core has
// performed the operation, so workload functions read like ordinary
// sequential code while their memory behaviour is played out cycle by cycle
// in the timing models. Two kinds of op sequence run with the gate's help,
// so the thread resumes once per sequence rather than once per op: a Batch
// of ops the thread already knows, and a Poll32 spin loop.
type Context struct {
	thread *Thread
}

// do publishes one operation to the owning core and waits for its
// completion. The thread publishes the op (see Thread.publish): the core
// consumes it and schedules its events on this coroutine. The holder then
// keeps dispatching until its own result arrives; a nested activation yields
// straight back to its activator. The first operation has no resume
// continuation yet: the launching core is waiting in Thread.launch to consume
// it.
func (c *Context) do(op Op) Result {
	t := c.thread
	t.publish(op)
	if t == t.gate.holder {
		t.drive()
	} else {
		t.park()
	}
	return t.result
}

// drive advances the simulation while the holder's operation is in flight:
// it dispatches engine events until a completion is pending. When the oldest
// pending completion is its own it pops itself and returns — the zero-switch
// fast path — after running any batch steps that completion leaves to the
// gate. Otherwise, or when the engine cannot advance, it yields to Drive,
// which activates the older completion or finds the engine stalled; the
// thread is activated again only once its result has been delivered.
func (t *Thread) drive() {
	for t.gate.popOwn(t) {
		if !t.stepping || !t.step() {
			return
		}
	}
	t.park()
}

// PollCond is the exit test of a Poll32 loop, applied to each loaded value v
// and the loop's operand x.
type PollCond uint8

const (
	// UntilEqual ends the loop once v == x.
	UntilEqual PollCond = iota
	// UntilNotEqual ends the loop once v != x.
	UntilNotEqual
	// UntilAtLeast ends the loop once v >= x.
	UntilAtLeast
)

// ends reports whether the loaded value v ends a loop with operand x.
func (c PollCond) ends(v, x uint32) bool {
	switch c {
	case UntilEqual:
		return v == x
	case UntilNotEqual:
		return v != x
	default:
		return v >= x
	}
}

// Poll32 spins on the 32-bit value at va until cond holds against x, and
// returns the value that ended the loop. It issues exactly the ops of
//
//	for v := c.Load32(va); !cond(v, x); v = c.Load32(va) {
//		c.Compute(pause)
//	}
//
// with no pause op when pause is 0. It runs as the thread's Batch of the
// load and the pause, which the gate repeats until a loaded value ends the
// loop (see Thread.step): the coroutine resumes only with that load, so a
// poll costs the coroutine switches of one load, however long it spins. The
// batch must have no op appended and not run.
func (c *Context) Poll32(va mem.VAddr, cond PollCond, x, pause uint32) uint32 {
	if cond > UntilAtLeast {
		panic(fmt.Sprintf("exec: Poll32 with PollCond(%d)", uint8(cond)))
	}
	b := c.Batch()
	if n := b.Len(); n != 0 {
		panic(fmt.Sprintf("exec: Poll32 with %d batch ops not run", n))
	}
	b.Load32(va)
	b.Compute(int64(pause))
	b.loop, b.cond, b.x = true, cond, x
	b.Run()
	return b.Value32(0)
}

// Record returns the record RecordOf last returned for the thread, or nil.
func (c *Context) Record() any {
	if r := c.thread.recs; r != nil {
		return r.v
	}
	return nil
}

// ThreadID reports the software thread's identifier (the xthreads tid).
func (c *Context) ThreadID() int { return int(c.thread.id) }

// Compute charges n instructions of pure computation.
func (c *Context) Compute(n int64) {
	if n <= 0 {
		return
	}
	c.do(Op{Kind: OpCompute, Instrs: n})
}

// Load64 loads a 64-bit value.
func (c *Context) Load64(va mem.VAddr) uint64 {
	return c.do(Op{Kind: OpLoad, Addr: va, Size: 8}).Value
}

// Load32 loads a 32-bit value.
func (c *Context) Load32(va mem.VAddr) uint32 {
	return uint32(c.do(Op{Kind: OpLoad, Addr: va, Size: 4}).Value)
}

// Load8 loads a byte.
func (c *Context) Load8(va mem.VAddr) uint8 {
	return uint8(c.do(Op{Kind: OpLoad, Addr: va, Size: 1}).Value)
}

// Store64 stores a 64-bit value.
func (c *Context) Store64(va mem.VAddr, v uint64) {
	c.do(Op{Kind: OpStore, Addr: va, Size: 8, Value: v})
}

// Store32 stores a 32-bit value.
func (c *Context) Store32(va mem.VAddr, v uint32) {
	c.do(Op{Kind: OpStore, Addr: va, Size: 4, Value: uint64(v)})
}

// Store8 stores a byte.
func (c *Context) Store8(va mem.VAddr, v uint8) {
	c.do(Op{Kind: OpStore, Addr: va, Size: 1, Value: uint64(v)})
}

// LoadFloat64 loads an IEEE-754 double.
func (c *Context) LoadFloat64(va mem.VAddr) float64 {
	return math.Float64frombits(c.Load64(va))
}

// StoreFloat64 stores an IEEE-754 double.
func (c *Context) StoreFloat64(va mem.VAddr, v float64) {
	c.Store64(va, math.Float64bits(v))
}

// LoadFloat32 loads an IEEE-754 single.
func (c *Context) LoadFloat32(va mem.VAddr) float32 {
	return math.Float32frombits(c.Load32(va))
}

// StoreFloat32 stores an IEEE-754 single.
func (c *Context) StoreFloat32(va mem.VAddr, v float32) {
	c.Store32(va, math.Float32bits(v))
}

// AtomicAdd64 atomically adds delta to the 64-bit value at va and returns the
// previous value (fetch-and-add).
func (c *Context) AtomicAdd64(va mem.VAddr, delta uint64) uint64 {
	return c.do(Op{Kind: OpRMW, RMW: RMWAdd, Addr: va, Size: 8, Value: delta}).Value
}

// AtomicAdd32 atomically adds delta to the 32-bit value at va and returns the
// previous value.
func (c *Context) AtomicAdd32(va mem.VAddr, delta uint32) uint32 {
	return uint32(c.do(Op{Kind: OpRMW, RMW: RMWAdd, Addr: va, Size: 4, Value: uint64(delta)}).Value)
}

// AtomicCAS32 atomically replaces the 32-bit value at va with new if it
// equals old, reporting whether the swap happened.
func (c *Context) AtomicCAS32(va mem.VAddr, old, new uint32) bool {
	prev := uint32(c.do(Op{Kind: OpRMW, RMW: RMWCAS, Addr: va, Size: 4, Cmp: uint64(old), Value: uint64(new)}).Value)
	return prev == old
}

// AtomicExchange32 atomically stores new at va and returns the previous
// value.
func (c *Context) AtomicExchange32(va mem.VAddr, new uint32) uint32 {
	return uint32(c.do(Op{Kind: OpRMW, RMW: RMWExchange, Addr: va, Size: 4, Value: uint64(new)}).Value)
}

// Syscall invokes an OS service (CPU cores only; MTTOP cores reject it, as
// in the paper's design where MTTOP cores do not run the OS).
func (c *Context) Syscall(num int, args ...uint64) uint64 {
	return c.do(Op{Kind: OpSyscall, Syscall: int32(num), Args: args}).Value
}

package exec

import (
	"fmt"
	"math"

	"ccsvm/internal/mem"
)

// Batch is a thread's straight-line op sequence: loads, stores and computes
// whose addresses and values the thread already knows. The thread appends
// them, runs the batch, and reads each load's value afterwards by the index
// its append returned. Run issues exactly the ops the open-coded sequence
// would, in order and at the same simulated times, but the gate publishes
// ops 2..n itself where the thread would have (see Thread.step), so the
// thread's coroutine resumes once per batch instead of once per op.
//
// Ops appended to a batch are issued only by Run: an op the thread issues
// directly through its Context in between goes to the core first. A batch
// belongs to one thread (Context.Batch) from its first use until the thread
// finishes, and must not be kept beyond that.
type Batch struct {
	t *Thread
	// ops is the batch; ops[next:] are appended and not yet run. While the
	// batch runs, next is the index of the op in flight.
	ops  []batchOp
	next int
	// loop marks a Poll32 loop: ops are its load and optional pause, which
	// the gate repeats until the load's value meets cond against x.
	loop bool
	cond PollCond
	x    uint32
}

// batchOp is one op of a Batch. It holds no pointer, so the garbage
// collector never scans a batch's storage. val is a store's data, a
// compute's instruction count, or a load's value once the load completed.
type batchOp struct {
	kind OpKind
	size uint8
	addr mem.VAddr
	val  uint64
}

// op is the Op the thread would have issued for o.
func (o *batchOp) op() Op {
	switch o.kind {
	case OpCompute:
		return Op{Kind: OpCompute, Instrs: int64(o.val)}
	case OpLoad:
		return Op{Kind: OpLoad, Addr: o.addr, Size: o.size}
	default:
		return Op{Kind: OpStore, Addr: o.addr, Size: o.size, Value: o.val}
	}
}

// Batch returns the thread's op batch. The first call takes one from the
// gate's free list; the thread hands it back when it finishes.
func (c *Context) Batch() *Batch {
	t := c.thread
	if t.batch == nil {
		t.batch = t.gate.getBatch()
		t.batch.t = t
	}
	return t.batch
}

// add appends one op and returns its index. The first append after a Run
// starts a new batch, so the values of the last run's loads stay readable
// until then.
func (b *Batch) add(kind OpKind, size uint8, va mem.VAddr, v uint64) int {
	if b.next == len(b.ops) {
		b.ops, b.next = b.ops[:0], 0
	}
	if len(b.ops) == cap(b.ops) {
		b.grow()
	}
	i := len(b.ops)
	b.ops = b.ops[:i+1]
	b.ops[i] = batchOp{kind: kind, size: size, addr: va, val: v}
	return i
}

// grow makes room for more ops: at least twice as many, and at least as many
// as the longest batch the gate has run. Threads that run the same kernel
// at once, such as an NDRange's work-items, then allocate their storage once
// at the size it needs.
func (b *Batch) grow() {
	ops := make([]batchOp, len(b.ops), max(2*cap(b.ops), b.t.gate.longest, 8))
	copy(ops, b.ops)
	b.ops = ops
}

// Len reports how many ops are appended and not yet run: the index the next
// append returns.
func (b *Batch) Len() int { return len(b.ops) - b.next }

// Cap reports how many ops the batch holds before its storage grows.
func (b *Batch) Cap() int { return cap(b.ops) }

// Load32 appends a 32-bit load and returns its index.
func (b *Batch) Load32(va mem.VAddr) int { return b.add(OpLoad, 4, va, 0) }

// Load64 appends a 64-bit load and returns its index.
func (b *Batch) Load64(va mem.VAddr) int { return b.add(OpLoad, 8, va, 0) }

// Store32 appends a 32-bit store.
func (b *Batch) Store32(va mem.VAddr, v uint32) { b.add(OpStore, 4, va, uint64(v)) }

// Compute appends n instructions of pure computation; like Context.Compute
// it appends nothing when n is not positive.
func (b *Batch) Compute(n int64) {
	if n > 0 {
		b.add(OpCompute, 0, 0, uint64(n))
	}
}

// Run issues the appended ops in order and returns once the last of them
// has completed. Only the first is published by the thread's own code; the
// gate records each completed load's value and publishes the next op. Run
// returns at once when no op is appended.
func (b *Batch) Run() {
	if b.next == len(b.ops) {
		return
	}
	t := b.t
	t.gate.longest = max(t.gate.longest, len(b.ops))
	t.stepping = true
	t.ctx.do(b.ops[b.next].op())
}

// Value64 returns the value of the load with index i of the batch that ran
// last.
func (b *Batch) Value64(i int) uint64 {
	if i >= b.next || b.ops[i].kind != OpLoad {
		panic(fmt.Sprintf("exec: batch op %d of %d run is not a completed load", i, b.next))
	}
	return b.ops[i].val
}

// Value32 returns the value of the 32-bit load with index i.
func (b *Batch) Value32(i int) uint32 { return uint32(b.Value64(i)) }

// Float64 returns the value of the 64-bit load with index i as an IEEE-754
// double.
func (b *Batch) Float64(i int) float64 { return math.Float64frombits(b.Value64(i)) }

// step runs the between-ops step of t's batch on the gate's side, where t's
// own code would have run it: it records a completed load's value and
// publishes the next op. A Poll32 loop tests each loaded value and, while it
// fails, starts the loop's ops over. step reports false once the batch has
// ended, after its last op or on the load that ends a loop: t's coroutine
// must then run. Only Drive (through hold), Drain and t's own drive loop
// call it.
func (t *Thread) step() bool {
	b := t.batch
	o := &b.ops[b.next]
	if o.kind == OpLoad {
		o.val = t.result.Value
		if b.loop && b.cond.ends(uint32(o.val), b.x) {
			b.loop, b.next, t.stepping = false, len(b.ops), false
			return false
		}
	}
	if b.next++; b.next == len(b.ops) {
		if !b.loop {
			t.stepping = false
			return false
		}
		b.next = 0
	}
	t.publish(b.ops[b.next].op())
	return true
}

// releaseBatch hands t's batch back to the gate's free list.
func (t *Thread) releaseBatch() {
	if b := t.batch; b != nil {
		t.batch, t.stepping = nil, false
		t.gate.putBatch(b)
	}
}

// getBatch takes an empty batch off the free list, or builds one.
func (g *Gate) getBatch() *Batch {
	n := len(g.batches)
	if n == 0 {
		return &Batch{}
	}
	b := g.batches[n-1]
	g.batches[n-1] = nil
	g.batches = g.batches[:n-1]
	return b
}

// putBatch empties b and parks it on the free list.
func (g *Gate) putBatch(b *Batch) {
	*b = Batch{ops: b.ops[:0]}
	g.batches = append(g.batches, b) // grows to the most threads holding a batch at once
}

// SeedBatches hands the gate batches drained from an earlier machine's gate
// (see DrainBatches), so this machine's threads take those before building
// any. Every one holds the longest batch the earlier gates ran, so the
// smallest of them is at least that long, and a batch this gate builds
// grows to it at once.
func (g *Gate) SeedBatches(bs []*Batch) {
	if len(bs) > 0 {
		least := cap(bs[0].ops)
		for _, b := range bs[1:] {
			least = min(least, cap(b.ops))
		}
		g.longest = max(g.longest, least)
	}
	if len(g.batches) == 0 {
		g.batches = bs
		return
	}
	g.batches = append(g.batches, bs...)
}

// DrainBatches removes and returns every batch on the gate's free list,
// which holds all of them once every thread has finished or been killed.
// Each comes back able to hold the longest batch the gate ran: a thread of
// the next machine may take any of them, and none then grows its storage
// unless it runs a batch longer than every earlier one.
func (g *Gate) DrainBatches() []*Batch {
	bs := g.batches
	g.batches = nil
	for _, b := range bs {
		if cap(b.ops) < g.longest {
			b.ops = make([]batchOp, 0, g.longest)
		}
	}
	return bs
}

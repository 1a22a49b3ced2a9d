package exec

import (
	"errors"
	"fmt"
	"strconv"

	"ccsvm/internal/mem"
	"ccsvm/internal/sim"
)

// OpKind classifies an operation issued by a software thread.
type OpKind uint8

const (
	// OpCompute advances time by a number of instructions with no memory
	// access (the workload's arithmetic).
	OpCompute OpKind = iota
	// OpLoad reads Size bytes at Addr.
	OpLoad
	// OpStore writes Value (low Size bytes) at Addr.
	OpStore
	// OpRMW atomically applies the RMW/Cmp/Value-described modification to
	// the Size-byte value at Addr and returns the old value (fetch-and-op /
	// compare-and-swap).
	OpRMW
	// OpSyscall invokes an OS service on a CPU core.
	OpSyscall
)

// String names the kind.
func (k OpKind) String() string {
	switch k {
	case OpCompute:
		return "compute"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpRMW:
		return "rmw"
	case OpSyscall:
		return "syscall"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// RMWKind enumerates the atomic read-modify-write operations a thread can
// issue. An enum plus operands replaces the historical per-call Modify
// closure: every AtomicAdd/CAS/Exchange used to allocate a capturing closure
// on the workload's hot path, where the enum rides in the Op by value.
type RMWKind uint8

const (
	// RMWAdd is fetch-and-add: the new value is old + Value (32-bit ops wrap
	// at 32 bits).
	RMWAdd RMWKind = iota
	// RMWCAS is 32-bit compare-and-swap: the new value is Value when the low
	// 32 bits of the old value equal Cmp, otherwise the value is unchanged.
	RMWCAS
	// RMWExchange unconditionally stores Value and returns the old value.
	RMWExchange
)

// Op is one operation requested by a software thread. It is copied into the
// thread's publication slot on every simulated operation, so the layout is
// packed to exactly one 64-byte cache line: the three one-byte discriminators
// and the syscall number share the first word, followed by the operand words.
type Op struct {
	// Kind and RMW classify the operation; RMW is meaningful only for OpRMW.
	Kind OpKind
	RMW  RMWKind
	// Size is the access width in bytes of memory ops (1, 4 or 8).
	Size uint8
	// Syscall is the service number of an OpSyscall.
	Syscall int32
	// Addr is the virtual address of memory ops.
	Addr mem.VAddr
	// Value is the store data, the RMW addend/new value, or unused.
	Value uint64
	// Cmp is the compare operand of an RMWCAS.
	Cmp uint64
	// Instrs is the instruction count of an OpCompute.
	Instrs int64
	// Args holds an OpSyscall's arguments.
	Args []uint64
}

// ApplyRMW computes the post-modification value of an OpRMW from the value
// previously held in memory. It is applied atomically by the core models at
// completion time; cores truncate the result to Size bytes on the store.
func (o *Op) ApplyRMW(old uint64) uint64 {
	switch o.RMW {
	case RMWAdd:
		if o.Size == 4 {
			return uint64(uint32(old) + uint32(o.Value))
		}
		return old + o.Value
	case RMWCAS:
		if uint32(old) == uint32(o.Cmp) {
			return o.Value
		}
		return old
	case RMWExchange:
		return o.Value
	default:
		panic(fmt.Sprintf("exec: ApplyRMW of RMWKind(%d)", uint8(o.RMW)))
	}
}

// Result is the completion value returned to the thread: the loaded value,
// the pre-atomic value of an RMW, or a syscall's return value.
type Result struct {
	Value uint64
}

// NextStatus is TryNext's report on a thread's state.
type NextStatus uint8

const (
	// NextOp means an operation was returned and must be executed.
	NextOp NextStatus = iota
	// NextWait means the thread has not produced its next operation yet; it
	// will run (and call the registered resume function when the operation is
	// ready) the next time it is activated from the gate's pending queue.
	NextWait
	// NextDone means the thread function has returned; the thread is finished
	// and will produce no more operations.
	NextDone
)

// killSignal is panicked inside a workload coroutine when the machine tears
// the thread down before it finished.
type killSignal struct{}

// Gate is the cooperative scheduler shared by every software thread of one
// machine. Each thread runs on an iter.Pull coroutine, so exactly one piece of
// code runs at any instant — Drive's loop or one thread — and control moves
// between them by direct coroutine switches, never through the Go
// scheduler's run queues.
//
// The holder is the thread Drive activated last. While its operation is in
// flight it dispatches engine events itself through the step function
// installed by Drive. Pending threads — threads whose operation completed and
// whose between-ops Go code must run before the next event — run in
// completion order:
//
//   - A completion of its own operation switches nothing: the holder pops
//     itself from the pending queue and keeps running.
//   - When another thread's completion comes up, the holder yields to Drive,
//     which activates that thread and makes it the holder: two coroutine
//     switches.
//   - Drain and a thread's first TryNext activate a parked thread nested, by
//     calling its next directly; the thread yields straight back as soon as
//     it has published its next operation.
//   - A thread running a Batch, or a Context.Poll32 loop, is not activated
//     until the batch or loop ends: Drive (keeping it as the holder), Drain
//     and its own drive loop run the between-ops steps for it instead (see
//     Thread.step).
//
// The gate is not safe for concurrent use; the coroutine hand-over is the
// synchronization. Machines must not share gates. A gate keeps the
// coroutines of finished threads parked for later threads (see Coroutine):
// its owner ends them with StopCoroutines, or hands them on with
// DrainCoroutines, before it drops the gate.
type Gate struct {
	// step dispatches one engine event under the host's run policy; installed
	// by Drive for the duration of the run.
	step func() bool
	// pending is the FIFO of threads whose completed operation has not yet
	// been consumed. Queue order is exactly the order the completions
	// happened, which is what makes the cooperative schedule bit-identical to
	// the historical blocking-handoff one.
	pending []*Thread
	head    int
	// holder is the thread Drive activated last, nil while Drive dispatches
	// itself. It is the only thread that can be pending without being parked:
	// its completion was delivered by an event it is dispatching.
	holder *Thread
	// running is the thread whose own code runs now, nil for engine and core
	// code. A thread's recovery uses it to tell its workload's panics from
	// panics it merely unwinds, and InWorkload reports it to the cores.
	running *Thread
	// draining guards Drain against reentry from the activated thread's own
	// scheduling, and inHandler restricts draining to schedules made inside
	// an event handler — a thread's own between-ops code schedules before
	// later completions activate, exactly as when it ran nested under the
	// completing handler.
	draining  bool
	inHandler bool
	// eng is the engine whose schedule hook this gate arms while completions
	// are pending (see Bind); armed mirrors the engine-side flag so enqueue
	// pays one store, not a call, in the common already-armed case.
	eng   *sim.Engine
	armed bool
	// batches is the free list of batches (see Context.Batch): a thread
	// takes one at its first use and hands it back when it finishes.
	// longest is the most ops a batch has held, the size batches grow to.
	batches []*Batch
	longest int
	// threads is every thread the gate owns. NewThread hands out
	// threads[:live], in creation order, and takes threads[live:] (threads
	// whose earlier use ended, kept with their coroutine body and records)
	// before it builds one. killed is set once a thread was killed: a core
	// may still hold it, so the gate takes none back before DrainThreads.
	threads []*Thread
	live    int
	killed  bool
	// coroutines is the pool of coroutines no thread runs: the parked
	// coroutines of finished threads and records whose goroutine was ended
	// (see Coroutine). A launch takes the one handed back last.
	coroutines []*Coroutine
}

// NewGate returns the scheduler for one machine's software threads.
func NewGate() *Gate { return &Gate{} }

// InWorkload reports whether a workload's own code is running: a thread's
// function, before its first op or between ops. Engine and core code, event
// handlers and the cores' resume and exit continuations included, run with
// no thread recorded.
func (g *Gate) InWorkload() bool { return g.running != nil }

// Bind installs the gate's drain as eng's schedule hook. The hook stays
// disarmed — a single predicted branch on the engine's schedule path — except
// while completions are pending, so bit-identical activation order costs the
// simulation nothing when no thread is waiting.
func (g *Gate) Bind(eng *sim.Engine) {
	g.eng = eng
	eng.SetScheduleHook(g.Drain)
}

func (g *Gate) enqueue(t *Thread) {
	g.pending = append(g.pending, t) // grows to the thread-count high-water mark, then reuses
	if !g.armed && g.eng != nil {
		g.armed = true
		g.eng.ArmScheduleHook(true)
	}
}

// disarm turns the engine-side hook off once no completion is pending.
func (g *Gate) disarm() {
	if g.armed {
		g.armed = false
		g.eng.ArmScheduleHook(false)
	}
}

// pop removes and returns the oldest pending thread, or nil. The backing
// array is recycled whenever the queue drains, which it does almost
// immediately — depth exceeds one only when a single event completes several
// operations.
func (g *Gate) pop() *Thread {
	if g.head == len(g.pending) {
		return nil
	}
	t := g.pending[g.head]
	g.pending[g.head] = nil
	g.head++
	if g.head == len(g.pending) {
		g.head = 0
		g.pending = g.pending[:0]
		g.disarm()
	}
	return t
}

// activate switches into t's coroutine and returns when t yields or exits,
// with t recorded as the running code meanwhile. A panic skips the restore on
// purpose: every recovery it unwinds through then sees that the panic was not
// its own thread's.
func (g *Gate) activate(t *Thread) {
	prev := g.running
	g.running = t
	t.co.next()
	g.running = prev
}

// Drain activates, in completion order, every pending thread that is parked:
// each runs its between-ops code, publishes its next operation and schedules
// that operation's consequences before control returns to the caller.
// Machines install it as the engine's schedule hook, so an event handler
// that completes operations and then schedules more events observes the same
// event-creation order as the historical blocking design, where Complete
// handed control to the thread and the handler resumed only after its next
// publication. The holder is the one pending thread that is not parked — its
// completion was delivered by an event it is dispatching, and it cannot be
// activated from under its own handler frame — so the drain stops there to
// preserve completion order and leaves the rest to the holder.
func (g *Gate) Drain() {
	if !g.inHandler || g.draining || g.head == len(g.pending) || g.pending[g.head] == g.holder {
		return
	}
	g.draining = true
	for g.head != len(g.pending) && g.pending[g.head] != g.holder {
		if t := g.pop(); !t.stepping || !t.step() {
			g.activate(t)
		}
	}
	g.draining = false
}

// dispatch runs one engine event under the drain discipline: only schedules
// made from inside the handler activate pending completions.
func (g *Gate) dispatch() bool {
	prev := g.running
	g.running = nil
	g.inHandler = true
	ok := g.step()
	g.inHandler = false
	g.running = prev
	return ok
}

// Drive runs the simulation to completion. It activates the oldest pending
// thread as the holder, which dispatches events until it yields, and
// dispatches events itself while no completion is pending. Drive returns when
// step reports false with no activations outstanding — every workload
// coroutine is parked (or finished) at that point, so the caller may inspect
// and tear down machine state freely. A panic that is not a workload's own
// (one raised by an event handler or by a core's thread-exit processing)
// propagates out of Drive with its original value.
func (g *Gate) Drive(step func() bool) {
	g.step = step
	for {
		if t := g.pop(); t != nil {
			g.holder = t
			if t.stepping {
				g.hold(t)
			} else {
				g.activate(t)
			}
			g.holder = nil
			continue
		}
		if !g.dispatch() {
			g.step = nil
			return
		}
	}
}

// maxSameTimeEvents bounds how many events in a row DriveUntil dispatches
// at one simulated time: it ends a run after at least this many and fewer
// than twice as many. The longest such run in the 14 paper series is 52
// events, in code_vectoradd_xthreads; an event that reschedules itself with
// no delay, which no simulated-time budget can stop, reaches the bound in
// well under a second.
const maxSameTimeEvents = 1_000_000

// ErrNoProgress is the error of a run whose simulated time stopped
// advancing: DriveUntil dispatched a million events in a row at one
// simulated time.
var ErrNoProgress = errors.New("simulated time stopped advancing")

// DriveUntil is the machines' run loop: Drive over the bound engine's Step
// (see Bind) that stops early in two cases. Once simulated time has passed
// deadline it returns overBudget true, and once maxSameTimeEvents events in
// a row ran at one simulated time it returns ErrNoProgress. Either way the
// remaining events stay queued and the threads parked.
//
// Time is compared with its reading at a checkpoint once every
// maxSameTimeEvents events rather than after each one: time never goes
// back, so equal readings mean every event between them ran at that time.
// Both stops hold once made, because a refused step runs no event: when a
// holder's drive loop is refused, its thread parks and Drive's own next
// step is refused as well.
func (g *Gate) DriveUntil(deadline sim.Time) (overBudget bool, err error) {
	eng := g.eng
	check, checkNow := eng.Executed()+maxSameTimeEvents, eng.Now()
	g.Drive(func() bool {
		now := eng.Now()
		if now > deadline {
			overBudget = true
			return false
		}
		if eng.Executed() >= check {
			if now == checkNow {
				err = ErrNoProgress
				return false
			}
			check, checkNow = eng.Executed()+maxSameTimeEvents, now
		}
		return eng.Step()
	})
	return overBudget, err
}

// hold runs the batch of the holder t from Drive: it runs the batch's steps
// for t and, between them, dispatches as t's drive loop would, returning
// when another completion is older or the engine stalls. t's coroutine is
// activated only once the batch ends.
//
// Only Drive, Drain and the thread's own drive loop may run its step. A
// holder that found another thread's batch completion oldest and ran that
// step itself would go on dispatching although the schedule has it parked
// and the other thread holding. A handler that then completed the first
// holder and scheduled would find it either still holding, so that its code
// ran after the schedule instead of before, or marked parked while its
// coroutine is the one running, which Drain cannot activate.
func (g *Gate) hold(t *Thread) {
	for t.step() {
		if !g.popOwn(t) {
			return
		}
	}
	g.activate(t)
}

// popOwn dispatches engine events until a completion is pending, and pops it
// if it is t's own. It reports false, popping nothing, when another thread's
// completion is older or the engine cannot advance.
func (g *Gate) popOwn(t *Thread) bool {
	for g.head == len(g.pending) {
		if !g.dispatch() {
			return false
		}
	}
	if g.pending[g.head] != t {
		return false
	}
	g.pop()
	return true
}

// Thread is the host-side handle for one software thread.
//
// The op/result handoff is a single-slot publication, not a channel
// rendezvous: the workload coroutine writes its next Op into the slot and
// calls the core's registered resume function itself. The holder then keeps
// dispatching until its own result arrives (Complete), so a self-completing
// operation costs zero switches; a nested activation yields straight back.
//
// The gate owns its threads and hands each out again once its use has ended
// (see NewThread). The layout fits the 176-byte size class: the flags share
// the id's word and the coroutine is one pointer.
type Thread struct {
	id int32
	// hasOp marks the publication slot full. stepping marks a thread whose
	// batch runs (see Thread.step): the gate steps it instead of activating
	// the coroutine. started records Start. finished flips when fn returns,
	// or when the thread is killed or discarded before launch.
	hasOp, stepping, started, finished bool
	// numbered marks a name that is a prefix for the id to complete (see
	// NewNumberedThread).
	numbered bool

	name string
	fn   func(*Context)
	// recs lists the records runtimes attached (see RecordOf), the one last
	// asked for first. They outlive the thread's use, so a runtime refills
	// its own in place.
	recs *record
	gate *Gate
	ctx  Context

	// op is the publication slot the workload fills; result carries the
	// completion value back. op still holds the in-flight op when it
	// completes.
	op     Op
	result Result
	// resume is the core's continuation for consuming the next published op,
	// registered by TryNext when the op was not ready (NextWait).
	resume func()

	// co is the coroutine the thread runs on, lent by the gate at launch
	// and handed back once the thread's exit path has run: nil before
	// launch and after.
	co *Coroutine

	// err is the workload's panic value. batch is the thread's Batch, nil
	// until its first use.
	err   any
	batch *Batch
}

// record is one entry of a thread's list of runtime records.
type record struct {
	v    any
	next *record
}

// NewThread hands out a software thread that will run fn under the
// machine's gate. The id is exposed to the workload through
// Context.ThreadID. The gate reuses a thread whose earlier use ended (see
// RecycleThreads and SeedThreads) before it builds one, so the thread may
// carry the records of runtimes that used it before (see RecordOf).
func NewThread(g *Gate, id int, name string, fn func(*Context)) *Thread {
	var t *Thread
	if g.live < len(g.threads) {
		t = g.threads[g.live]
	} else {
		t = &Thread{}
		t.ctx.thread = t
		g.threads = append(g.threads, t) // grows to the most threads one run has started
	}
	g.live++
	t.id, t.name, t.fn, t.gate = int32(id), name, fn, g
	return t
}

// NewNumberedThread is NewThread for a thread named prefix followed by its
// id in decimal, as a device runtime names the threads of one kernel. Name
// formats the name only when asked, so starting the thread allocates
// nothing for it.
func NewNumberedThread(g *Gate, id int, prefix string, fn func(*Context)) *Thread {
	t := NewThread(g, id, prefix, fn)
	t.numbered = true
	return t
}

// RecordOf returns t's record of type *R, attaching a new zero R when t has
// none, and makes it the record Context.Record reports. A runtime keeps its
// per-thread state in the record and overwrites it whenever it hands the
// thread a new task, so a recycled thread costs it nothing. A thread keeps
// one record per type, so threads that serve two runtimes in turn, as a
// worker's threads do when it alternates CCSVM and OpenCL machines, keep
// both.
func RecordOf[R any](t *Thread) *R {
	for prev, r := (*record)(nil), t.recs; r != nil; prev, r = r, r.next {
		if v, ok := r.v.(*R); ok {
			if prev != nil {
				prev.next, r.next, t.recs = r.next, t.recs, r
			}
			return v
		}
	}
	v := new(R)
	t.recs = &record{v: v, next: t.recs}
	return v
}

// Threads reports how many threads the gate has handed out since it last
// took them back.
func (g *Gate) Threads() int { return g.live }

// KillAll tears down every thread the gate handed out that has not
// finished (see Thread.Kill).
func (g *Gate) KillAll() {
	for _, t := range g.threads[:g.live] {
		t.Kill()
	}
}

// RecycleThreads takes back every thread the gate handed out, for NewThread
// to hand out again, when all of them have finished and none was killed,
// and reports whether it did. Machines call it when a run has ended
// cleanly: a core lets go of a thread when it finishes, but may still hold
// a killed one.
func (g *Gate) RecycleThreads() bool {
	if g.killed {
		return false
	}
	for _, t := range g.threads[:g.live] {
		if !t.finished {
			return false
		}
	}
	for _, t := range g.threads[:g.live] {
		t.reset()
	}
	g.live = 0
	return true
}

// SeedThreads hands the gate threads drained from an earlier machine's gate
// (see DrainThreads), for NewThread to hand out before it builds any. The
// gate must have handed out none.
func (g *Gate) SeedThreads(ts []*Thread) {
	if len(g.threads) != 0 {
		panic("exec: SeedThreads on a gate that owns threads")
	}
	g.threads = ts
}

// DrainThreads kills every unfinished thread, then removes and returns all
// the gate's threads, each holding only its records.
// The machine must not run threads afterwards: its cores may still hold
// killed ones.
func (g *Gate) DrainThreads() []*Thread {
	g.KillAll()
	ts := g.threads
	for _, t := range ts[:g.live] {
		t.reset()
	}
	g.threads, g.live, g.killed = nil, 0, false
	return ts
}

// reset readies a finished thread for its next use: it drops everything but
// its Context and its records.
func (t *Thread) reset() {
	*t = Thread{ctx: t.ctx, recs: t.recs}
}

// ID reports the thread's identifier.
func (t *Thread) ID() int { return int(t.id) }

// Name reports the thread's debug name.
func (t *Thread) Name() string {
	if t.numbered {
		return t.name + strconv.Itoa(int(t.id))
	}
	return t.name
}

// Start marks the thread runnable. It must be called exactly once, before
// the first TryNext. The workload coroutine itself launches lazily on the
// first TryNext: this way the Go code a thread runs before its first
// operation is serialized with the engine exactly like the code between
// operations, instead of racing whatever else runs between Start and the
// first fetch — e.g. the gap code of other threads while this one sits in a
// core's run queue.
func (t *Thread) Start() {
	if t.started {
		panic("exec: thread started twice")
	}
	t.started = true
}

// launch lends the thread a coroutine and runs it nested until the thread
// has either published its first operation or returned. Cores start threads
// from event handlers and from other threads' between-ops code, and in both
// places the new thread's prologue (and the scheduling of its first
// operation) must complete before the caller proceeds, exactly as it did
// when the op fetch was a blocking receive.
func (t *Thread) launch() (Op, NextStatus) {
	t.gate.lend(t)
	t.gate.activate(t)
	if t.hasOp {
		t.hasOp = false
		return t.op, NextOp
	}
	return Op{}, NextDone
}

// run calls the thread function and keeps a panic of the workload's own in
// err. Any other panic — raised by an event handler the thread dispatched,
// or by another thread's exit path it activated — is re-panicked with its
// original value so it reaches Drive. run reports whether the thread was
// killed.
func (t *Thread) run() (killed bool) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if _, killed = r.(killSignal); killed {
			return
		}
		if t.gate.running != t {
			panic(r)
		}
		t.err = r
	}()
	t.fn(&t.ctx)
	return false
}

// publish writes op into the thread's slot and, when the core has registered
// its resume continuation, has the core consume it.
func (t *Thread) publish(op Op) {
	t.op, t.hasOp = op, true
	if t.resume != nil {
		t.consume()
	}
}

// consume calls the core's resume continuation once. The continuation is
// core code, not the workload's, so it runs with no thread recorded as
// running: a panic it raises reaches Drive. It is apart from publish so that
// publish stays small enough to inline into Context.do, which then passes no
// Op by value per operation.
func (t *Thread) consume() {
	r := t.resume
	t.resume = nil
	g := t.gate
	prev := g.running
	g.running = nil
	r()
	g.running = prev
}

// park yields the coroutine. It returns when the thread is next activated,
// which always means its result was delivered; a false yield means the
// machine is tearing the thread down.
func (t *Thread) park() {
	if !t.co.yield(struct{}{}) {
		panic(killSignal{})
	}
}

// TryNext fetches the thread's next operation without blocking. On NextWait
// the resume function is recorded and will be invoked — on the workload
// coroutine — as soon as the thread publishes its next operation; the core
// must simply return to the event loop. The first TryNext after Start
// launches the workload coroutine and waits for its first publication (see
// launch).
func (t *Thread) TryNext(resume func()) (Op, NextStatus) {
	if t.hasOp {
		t.hasOp = false
		return t.op, NextOp
	}
	if t.finished {
		return Op{}, NextDone
	}
	if t.co == nil {
		if !t.started {
			panic("exec: Next before Start")
		}
		return t.launch()
	}
	t.resume = resume
	return Op{}, NextWait
}

// Complete delivers the result of the thread's outstanding operation and
// queues the thread for activation: its between-ops code runs — in
// completion order relative to other threads — before the engine dispatches
// the next event.
func (t *Thread) Complete(r Result) {
	t.result = r
	t.gate.enqueue(t)
}

// Kill tears the thread down. It must be called with the thread parked
// (machines call it after Drive has returned): the coroutine's stop unwinds
// it with an internal panic, which ends the coroutine's goroutine, so the
// coroutine never goes back to the pool. Safe to call on finished threads
// and on threads that never launched, which have no coroutine to unwind.
func (t *Thread) Kill() {
	if t.finished {
		return
	}
	g := t.gate
	g.killed = true
	if c := t.co; c != nil {
		prev := g.running
		g.running = t
		c.stop()
		g.running = prev
		t.co = nil
	}
	t.finished = true
	t.releaseBatch()
}

// Finished reports whether the thread function has returned.
func (t *Thread) Finished() bool { return t.finished }

// Err returns the panic value if the workload function panicked, or nil.
// Machines re-panic this on the host side so workload bugs fail loudly.
func (t *Thread) Err() any { return t.err }

package exec

import (
	"fmt"
	"iter"

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
// machine. Each thread is an iter.Pull coroutine, so exactly one piece of
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
//   - A thread inside Context.Poll32 is not activated until its loop ends:
//     Drive (keeping it as the holder), Drain and its own drive loop run the
//     loop's between-ops steps for it instead (see pollStep).
//
// The gate is not safe for concurrent use; the coroutine hand-over is the
// synchronization. Machines must not share gates.
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

//ccsvm:hotpath
func (g *Gate) enqueue(t *Thread) {
	g.pending = append(g.pending, t) //ccsvm:allocok // grows to the thread-count high-water mark, then reuses
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
//
//ccsvm:hotpath
func (g *Gate) activate(t *Thread) {
	prev := g.running
	g.running = t
	t.next()
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
//
//ccsvm:hotpath
func (g *Gate) Drain() {
	if !g.inHandler || g.draining || g.head == len(g.pending) || g.pending[g.head] == g.holder {
		return
	}
	g.draining = true
	for g.head != len(g.pending) && g.pending[g.head] != g.holder {
		if t := g.pop(); !t.polling || !t.pollStep() {
			g.activate(t)
		}
	}
	g.draining = false
}

// dispatch runs one engine event under the drain discipline: only schedules
// made from inside the handler activate pending completions.
//
//ccsvm:hotpath
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
			if t.polling {
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

// hold runs the Poll32 loop of the holder t from Drive: it runs the loop's
// steps for t and, between them, dispatches as t's drive loop would,
// returning when another completion is older or the engine stalls. t's
// coroutine is activated only once a load ends the loop.
//
// Only Drive, Drain and the poller's own drive loop may run a poll step. A
// holder that found another thread's poll completion oldest and ran that
// step itself would go on dispatching although the schedule has it parked
// and the poller holding. A handler that then completed the first holder and
// scheduled would find it either still holding, so that its code ran after
// the schedule instead of before, or marked parked while its coroutine is
// the one running, which Drain cannot activate.
//
//ccsvm:hotpath
func (g *Gate) hold(t *Thread) {
	for t.pollStep() {
		if !g.popOwn(t) {
			return
		}
	}
	g.activate(t)
}

// popOwn dispatches engine events until a completion is pending, and pops it
// if it is t's own. It reports false, popping nothing, when another thread's
// completion is older or the engine cannot advance.
//
//ccsvm:hotpath
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
type Thread struct {
	id   int
	name string
	fn   func(*Context)
	gate *Gate
	ctx  Context

	// op/hasOp is the publication slot the workload fills; result carries the
	// completion value back. op still holds the in-flight op when it
	// completes.
	op    Op
	hasOp bool
	// polling marks a thread inside Context.Poll32, whose loop the gate steps
	// from pollCond, pollX, pollPause and pollAddr. All but pollAddr sit in
	// padding, so Thread stays in the 192-byte size class.
	polling  bool
	pollCond PollCond
	pollX    uint32
	result   Result
	// resume is the core's continuation for consuming the next published op,
	// registered by TryNext when the op was not ready (NextWait).
	resume func()

	// next runs the coroutine until it yields (its next op is published or it
	// handed the holder role back to Drive) or returns; stop unwinds a parked
	// coroutine; yield is the coroutine's side of next. All three come from
	// iter.Pull at launch.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	started  bool
	launched bool
	// finished flips when fn returns, or when the thread is killed or
	// discarded before launch.
	finished  bool
	pollPause uint32
	err       any
	pollAddr  mem.VAddr
}

// NewThread creates a software thread that will run fn under the machine's
// gate. The id is exposed to the workload through Context.ThreadID.
func NewThread(g *Gate, id int, name string, fn func(*Context)) *Thread {
	t := &Thread{gate: g, id: id, name: name, fn: fn}
	t.ctx.thread = t
	return t
}

// ID reports the thread's identifier.
func (t *Thread) ID() int { return t.id }

// Name reports the thread's debug name.
func (t *Thread) Name() string { return t.name }

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

// launch creates the workload coroutine and runs it nested until it has
// either published its first operation or returned. Cores start threads from
// event handlers and from other threads' between-ops code, and in both places
// the new thread's prologue (and the scheduling of its first operation) must
// complete before the caller proceeds, exactly as it did when the op fetch
// was a blocking receive.
func (t *Thread) launch() (Op, NextStatus) {
	t.launched = true
	t.next, t.stop = iter.Pull(t.body)
	t.gate.activate(t)
	if t.hasOp {
		t.hasOp = false
		return t.op, NextOp
	}
	return Op{}, NextDone
}

// body is the coroutine: the thread function, then the exit path that tells
// the owning core the thread is finished (it observes NextDone and runs its
// exit processing, as core code through consume). Returning hands control
// back to whoever activated the thread: Drive, which carries on with the next
// pending thread or event, or the nested activator. A killed thread unwinds
// without touching the core.
func (t *Thread) body(yield func(struct{}) bool) {
	t.yield = yield
	if killed := t.run(); killed {
		return
	}
	t.finished = true
	if t.resume != nil {
		t.consume()
	}
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
//
//ccsvm:hotpath
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
//
//ccsvm:hotpath
func (t *Thread) consume() {
	r := t.resume
	t.resume = nil
	g := t.gate
	prev := g.running
	g.running = nil
	r()
	g.running = prev
}

// pollStep runs the between-ops step of t's Poll32 loop on the gate's side,
// where t's own code would have run it, when its completed op does not end
// the loop: after a pause, or a load whose value fails the test, it publishes
// the next load or pause. It reports false, ending the loop, when the load's
// value ends it: t's coroutine must then run to return that value.
//
//ccsvm:hotpath
func (t *Thread) pollStep() bool {
	if t.op.Kind == OpLoad {
		if t.pollCond.ends(uint32(t.result.Value), t.pollX) {
			t.polling = false
			return false
		}
		if t.pollPause != 0 {
			t.publish(Op{Kind: OpCompute, Instrs: int64(t.pollPause)})
			return true
		}
	}
	t.publish(Op{Kind: OpLoad, Addr: t.pollAddr, Size: 4})
	return true
}

// park yields the coroutine. It returns when the thread is next activated,
// which always means its result was delivered; a false yield means the
// machine is tearing the thread down.
func (t *Thread) park() {
	if !t.yield(struct{}{}) {
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
	if !t.launched {
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
// it with an internal panic. Safe to call on finished threads and on threads
// that never launched, which have no coroutine to unwind.
func (t *Thread) Kill() {
	if t.finished {
		return
	}
	if t.launched {
		g := t.gate
		prev := g.running
		g.running = t
		t.stop()
		g.running = prev
	}
	t.finished = true
}

// Finished reports whether the thread function has returned.
func (t *Thread) Finished() bool { return t.finished }

// Err returns the panic value if the workload function panicked, or nil.
// Machines re-panic this on the host side so workload bugs fail loudly.
func (t *Thread) Err() any { return t.err }

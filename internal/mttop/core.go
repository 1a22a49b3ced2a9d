package mttop

import (
	"fmt"

	"ccsvm/internal/exec"
	"ccsvm/internal/mem"
	"ccsvm/internal/sim"
	"ccsvm/internal/vm"
)

// FaultHandler receives page faults that MTTOP cores cannot service locally.
// The MIFD implements it by interrupting a CPU core, exactly as in Section
// 3.2.1 of the paper.
type FaultHandler interface {
	RaiseMTTOPPageFault(fault *vm.Fault, resume func())
}

// Config describes one MTTOP core.
type Config struct {
	// Clock is the MTTOP clock domain (600 MHz).
	Clock sim.Clock
	// NumContexts is the number of hardware thread contexts (128).
	NumContexts int
	// IssueWidth is the number of operations the core can issue per cycle
	// across all contexts (8).
	IssueWidth int
	// Name identifies the core in diagnostics.
	Name string
}

// hwContext is one hardware thread context. A context runs one operation at
// a time, so the in-flight op's state lives here and the per-op callbacks
// (translateCb, accessCb) are bound once, when the context is built — the
// hot issue/translate/access path allocates nothing per operation.
type hwContext struct {
	//ccsvm:stateok // coroutine-backed thread handle; software threads are re-launched on restore
	thread *exec.Thread
	//ccsvm:stateok // task completion callback; re-registered when tasks are re-issued on restore
	onDone func()
	busy   bool

	op exec.Op
	pa mem.PAddr
	// translateCb receives the MMU translation of op.Addr; accessCb runs
	// when the cache access for the op is globally performed; stepFn is the
	// resume continuation handed to Thread.TryNext.
	//
	//ccsvm:stateok // bound once when the context is built; rebound on restore
	translateCb func(mem.PAddr, *vm.Fault)
	//ccsvm:stateok // bound once when the context is built; rebound on restore
	accessCb func()
	//ccsvm:stateok // bound once when the context is built; rebound on restore
	stepFn func()
}

// Core is one MTTOP core.
//
//ccsvm:state
type Core struct {
	engine *sim.Engine
	cfg    Config
	port   mem.Port
	mmu    *vm.MMU
	phys   *mem.Physical
	faults FaultHandler

	// idle is the stack of built contexts that run no thread, and inUse
	// counts the contexts that do. StartThread builds a context only when
	// none is idle, so a run pays for the most contexts it occupies at once,
	// not for NumContexts.
	idle  []*hwContext
	inUse int
	// issueFree is the shared issue-bandwidth bucket: each operation reserves
	// 1/IssueWidth of a cycle.
	issueFree sim.Time

	// completeFn and memIssueFn are the engine callbacks for compute-op
	// completion and memory-op issue, bound once so scheduling them never
	// allocates a closure (the context rides as the event argument).
	//
	//ccsvm:stateok // bound once at construction; rebound on restore
	completeFn func(any)
	//ccsvm:stateok // bound once at construction; rebound on restore
	memIssueFn func(any)

	Stats Stats
}

// Stats are a core's event counters.
type Stats struct {
	// Instructions counts issued instructions, one per memory op.
	Instructions uint64
	// MemOps counts loads, stores and atomics.
	MemOps uint64
	// PageFaults counts faults raised to the fault handler.
	PageFaults uint64
	// ThreadsRun counts threads started on the core.
	ThreadsRun uint64
}

// New builds an MTTOP core.
func New(engine *sim.Engine, cfg Config, port mem.Port, mmu *vm.MMU, phys *mem.Physical,
	faults FaultHandler) *Core {
	if cfg.NumContexts <= 0 || cfg.IssueWidth <= 0 {
		panic(fmt.Sprintf("mttop: invalid config for %s", cfg.Name))
	}
	c := &Core{
		engine: engine,
		cfg:    cfg,
		port:   port,
		mmu:    mmu,
		phys:   phys,
		faults: faults,
	}
	c.completeFn = func(a any) { c.completeOp(a.(*hwContext), exec.Result{}) }
	c.memIssueFn = func(a any) { c.memAccess(a.(*hwContext)) }
	return c
}

// Config returns the core's configuration.
func (c *Core) Config() Config { return c.cfg }

// MMU returns the core's MMU.
func (c *Core) MMU() *vm.MMU { return c.mmu }

// FreeContexts reports how many hardware thread contexts are available.
func (c *Core) FreeContexts() int { return c.cfg.NumContexts - c.inUse }

// FlushTLB flushes the core's TLB (the MIFD broadcasts this on shootdown).
func (c *Core) FlushTLB() {
	if c.mmu != nil {
		c.mmu.TLB().Flush()
	}
}

// StartThread binds a software thread to a free hardware context, loads the
// CR3 it received in the task descriptor, and begins execution. onDone runs
// when the thread's kernel function returns (the context is freed first).
// It panics if no context is free; the MIFD checks FreeContexts before
// dispatching.
func (c *Core) StartThread(t *exec.Thread, cr3 mem.PAddr, onDone func()) {
	if c.inUse == c.cfg.NumContexts {
		panic(fmt.Sprintf("%s: StartThread with no free contexts", c.cfg.Name))
	}
	c.inUse++
	var h *hwContext
	if n := len(c.idle); n > 0 {
		h = c.idle[n-1]
		c.idle = c.idle[:n-1]
	} else {
		h = c.newContext()
	}
	h.thread = t
	h.onDone = onDone
	h.busy = false
	c.Stats.ThreadsRun++
	// The task descriptor carries the process's CR3; loading it makes the
	// MTTOP core a full participant in the process's virtual address space.
	// (The APU baseline reuses this core model for its GPU SIMD units with no
	// MMU at all: addresses are physical and cr3 is ignored.)
	if c.mmu != nil {
		c.mmu.SetRoot(cr3)
	}
	t.Start()
	c.stepContext(h)
}

// newContext builds a hardware context and binds its callbacks.
func (c *Core) newContext() *hwContext {
	h := &hwContext{}
	h.translateCb = func(pa mem.PAddr, fault *vm.Fault) { c.translated(h, pa, fault) }
	h.accessCb = func() { c.accessDone(h) }
	h.stepFn = func() { c.stepContext(h) }
	return h
}

// BusyContexts reports how many contexts are currently running threads.
func (c *Core) BusyContexts() int { return c.inUse }

// stepContext pulls and executes the next operation of one context's thread.
// When the thread has not published it yet (NextWait), the fetch registers
// stepContext itself as the resume continuation: the thread's between-ops
// code runs when the gate activates its coroutine and re-enters here with the
// operation published.
//
//ccsvm:hotpath
func (c *Core) stepContext(h *hwContext) {
	if h.busy || h.thread == nil {
		return
	}
	op, st := h.thread.TryNext(h.stepFn)
	if st == exec.NextWait {
		return
	}
	if st == exec.NextDone {
		c.finishContext(h)
		return
	}
	h.busy = true
	c.execute(h, op)
}

func (c *Core) finishContext(h *hwContext) {
	t := h.thread
	onDone := h.onDone
	h.thread = nil
	h.onDone = nil
	h.busy = false
	c.inUse--
	c.idle = append(c.idle, h)
	if err := t.Err(); err != nil {
		panic(fmt.Sprintf("%s: MTTOP thread %q failed: %v", c.cfg.Name, t.Name(), err))
	}
	if onDone != nil {
		onDone()
	}
}

// reserveIssueSlots charges n operations against the core's shared issue
// bandwidth and returns the time the last of them issues.
func (c *Core) reserveIssueSlots(n int64) sim.Time {
	now := c.engine.Now()
	start := now
	if c.issueFree > start {
		start = c.issueFree
	}
	perOp := sim.Duration(int64(c.cfg.Clock.Period) / int64(c.cfg.IssueWidth))
	if perOp < 1 {
		perOp = 1
	}
	c.issueFree = start.Add(sim.Duration(n) * perOp)
	return c.issueFree
}

func (c *Core) execute(h *hwContext, op exec.Op) {
	switch op.Kind {
	case exec.OpCompute:
		c.Stats.Instructions += uint64(op.Instrs)
		// A single thread issues dependent instructions at one per cycle;
		// across threads the core sustains at most IssueWidth per cycle.
		slotEnd := c.reserveIssueSlots(op.Instrs)
		chainEnd := c.engine.Now().Add(c.cfg.Clock.Cycles(op.Instrs))
		end := chainEnd
		if slotEnd > end {
			end = slotEnd
		}
		c.engine.AtArg(end, c.completeFn, h)
	case exec.OpLoad, exec.OpStore, exec.OpRMW:
		c.Stats.Instructions++
		c.Stats.MemOps++
		h.op = op
		issueAt := c.reserveIssueSlots(1)
		c.engine.AtArg(issueAt, c.memIssueFn, h)
	case exec.OpSyscall:
		// MTTOP cores do not run the OS (Section 3.2.1); OS services are
		// obtained by signalling a CPU thread through shared memory instead.
		panic(fmt.Sprintf("%s: MTTOP thread attempted syscall %d", c.cfg.Name, op.Syscall))
	default:
		panic(fmt.Sprintf("%s: unknown op kind %v", c.cfg.Name, op.Kind))
	}
}

func (c *Core) completeOp(h *hwContext, r exec.Result) {
	h.thread.Complete(r)
	h.busy = false
	c.stepContext(h)
}

func (c *Core) memAccess(h *hwContext) {
	write := h.op.Kind != exec.OpLoad
	if c.mmu == nil {
		c.issueToPort(h, mem.PAddr(h.op.Addr))
		return
	}
	c.mmu.Translate(h.op.Addr, write, h.translateCb)
}

// translated continues a memory op once the MMU has resolved its address.
func (c *Core) translated(h *hwContext, pa mem.PAddr, fault *vm.Fault) {
	if fault != nil {
		// The MTTOP core cannot run the fault handler; the MIFD interrupts a
		// CPU core on our behalf and resumes us afterwards. Faults are rare,
		// so the resume closure is off the hot path.
		c.Stats.PageFaults++
		c.faults.RaiseMTTOPPageFault(fault, func() { c.memAccess(h) })
		return
	}
	c.issueToPort(h, pa)
}

// issueToPort performs the timed cache access and the functional data
// movement at completion time.
//
//ccsvm:hotpath
func (c *Core) issueToPort(h *hwContext, pa mem.PAddr) {
	var typ mem.AccessType
	switch h.op.Kind {
	case exec.OpLoad:
		typ = mem.Read
	case exec.OpStore:
		typ = mem.Write
	case exec.OpRMW:
		typ = mem.ReadModifyWrite
	}
	h.pa = pa
	c.port.Access(mem.Request{Type: typ, Addr: pa, Size: int(h.op.Size)}, h.accessCb)
}

// accessDone completes a memory op: the functional effect happens at the time
// the access is globally performed, exactly as the closure-based path did.
func (c *Core) accessDone(h *hwContext) {
	c.completeOp(h, exec.Result{Value: performFunctional(c.phys, h.op, h.pa)})
}

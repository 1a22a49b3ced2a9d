// Package cpu models the general-purpose CPU cores of both simulated
// machines. The CCSVM chip's CPU cores are in-order x86-like cores with a
// maximum IPC of 0.5 (Table 2); the APU baseline's CPU cores reuse the same
// model with an IPC of up to 4 and a private cache hierarchy. The core
// executes software threads provided by the exec package, translates their
// addresses through an optional MMU, services page faults through the kernel,
// and accepts interrupts raised on behalf of MTTOP cores by the MIFD.
package cpu

import (
	"fmt"

	"ccsvm/internal/exec"
	"ccsvm/internal/kernelos"
	"ccsvm/internal/mem"
	"ccsvm/internal/sim"
	"ccsvm/internal/vm"
)

// SyscallHandler services an OpSyscall: it may take simulated time and must
// eventually call done with the syscall's return value.
type SyscallHandler func(core *Core, num int, args []uint64, done func(ret uint64))

// Interrupt is a unit of work raised on a core from the outside (the MIFD
// forwarding an MTTOP page fault). The service function runs on the core
// between instructions and must call done when finished.
type Interrupt struct {
	// Name describes the interrupt for traces.
	Name string
	// Service performs the work, possibly over simulated time.
	Service func(done func())
}

// Config describes one CPU core.
type Config struct {
	// Clock is the core's clock domain (2.9 GHz for both machines).
	Clock sim.Clock
	// CPI is the average cycles per instruction for compute work
	// (2.0 for the CCSVM chip's deliberately weak in-order cores,
	// 0.25 for the APU's out-of-order cores).
	CPI float64
	// Name identifies the core in diagnostics.
	Name string
}

// Core is one CPU core.
type Core struct {
	engine *sim.Engine
	gate   *exec.Gate
	cfg    Config
	port   mem.Port
	mmu    *vm.MMU
	phys   *mem.Physical
	kernel *kernelos.Kernel

	syscall SyscallHandler

	current    *exec.Thread
	runQueue   []*exec.Thread
	interrupts []Interrupt
	busy       bool
	// nextOp buffers the current thread's next operation, fetched before
	// interrupts are serviced (see step for why the order matters).
	nextOp     exec.Op
	haveNextOp bool
	// onExit callbacks fire when a thread finishes, keyed per thread start.
	onExit map[*exec.Thread]func()

	// The core runs one operation at a time (busy), so the in-flight op's
	// state lives here and the hot-path callbacks below are bound once at
	// construction: executing a compute or memory op allocates nothing.
	op exec.Op
	pa mem.PAddr
	// computeFn completes a compute op; translateCb receives the MMU result;
	// accessCb runs when the cache access is globally performed; retryMemFn
	// reissues the op after a serviced page fault; stepFn is the resume
	// continuation handed to Thread.TryNext.
	computeFn   func(any)
	stepFn      func()
	translateCb func(mem.PAddr, *vm.Fault)
	accessCb    func()
	retryMemFn  func()

	lastStart sim.Time

	Stats Stats
}

// Stats are a core's event counters.
type Stats struct {
	// Instructions counts retired instructions, one per memory op.
	Instructions uint64
	// MemOps counts loads, stores and atomics.
	MemOps uint64
	// PageFaults counts faults the core serviced; Interrupts counts the
	// interrupts it took.
	PageFaults, Interrupts uint64
	// BusyPs sums the time the core spent running threads.
	BusyPs uint64
}

// New builds a CPU core whose threads run under gate, the machine's exec
// gate. The MMU may be nil, in which case virtual addresses are used as
// physical addresses directly (the APU baseline machine, whose
// address-translation behaviour is not part of the comparison, runs this
// way).
func New(engine *sim.Engine, gate *exec.Gate, cfg Config, port mem.Port, mmu *vm.MMU, phys *mem.Physical,
	kernel *kernelos.Kernel) *Core {
	c := &Core{
		engine: engine,
		gate:   gate,
		cfg:    cfg,
		port:   port,
		mmu:    mmu,
		phys:   phys,
		kernel: kernel,
		onExit: make(map[*exec.Thread]func()),
	}
	c.computeFn = func(any) { c.completeOp(c.current, exec.Result{}) }
	c.stepFn = func() { c.step() }
	c.translateCb = func(pa mem.PAddr, fault *vm.Fault) {
		if fault == nil {
			c.access(pa)
			return
		}
		c.ServicePageFault(fault, c.retryMemFn)
	}
	c.accessCb = func() {
		c.completeOp(c.current, exec.Result{Value: PerformFunctional(c.phys, c.op, c.pa)})
	}
	c.retryMemFn = func() { c.memAccess() }
	return c
}

// SetSyscallHandler installs the OS syscall dispatcher (the machine provides
// it, wiring the MIFD driver's write syscall among others).
func (c *Core) SetSyscallHandler(h SyscallHandler) { c.syscall = h }

// MMU returns the core's MMU (nil on machines without address translation).
func (c *Core) MMU() *vm.MMU { return c.mmu }

// Config returns the core's configuration.
func (c *Core) Config() Config { return c.cfg }

// Run starts (or queues) a software thread on this core. onExit, if non-nil,
// runs when the thread's function returns.
func (c *Core) Run(t *exec.Thread, onExit func()) {
	t.Start()
	if onExit != nil {
		c.onExit[t] = onExit
	}
	if c.current == nil {
		c.current = t
		c.lastStart = c.engine.Now()
	} else {
		c.runQueue = append(c.runQueue, t)
	}
	c.step()
}

// RaiseInterrupt queues external work (such as an MTTOP page fault forwarded
// by the MIFD) to run on this core between instructions. It must be called
// from engine context (an event callback), never from workload code: a
// workload calling it would re-enter step from under its own thread's fetch.
// Called before the thread's first op, that nested step consumes the op the
// thread's launch is waiting for, and the core retires the thread with no op
// done. So it panics whenever the gate reports workload code running; the
// thread keeps the panic in Err, and finishThread re-panics it with the
// thread's name.
func (c *Core) RaiseInterrupt(i Interrupt) {
	if c.gate.InWorkload() {
		panic("cpu: RaiseInterrupt from workload code")
	}
	c.interrupts = append(c.interrupts, i)
	c.step()
}

// Idle reports whether the core has no thread and no pending work.
func (c *Core) Idle() bool {
	return c.current == nil && len(c.runQueue) == 0 && len(c.interrupts) == 0 && !c.busy
}

// step advances the core: service one interrupt or execute the current
// thread's next operation. It is a no-op while an operation is in flight.
//
// The current thread's next operation is fetched (Thread.TryNext) before
// pending interrupts are considered. When the thread has not published it
// yet, the fetch registers step itself as the resume continuation and
// returns: the thread's between-ops Go code runs — fully serialized with the
// engine, on the thread's coroutine — when its pending activation comes up, and
// re-enters step with the operation published. Simulated timing is
// unchanged: the buffered operation still executes only after pending
// interrupts are drained.
func (c *Core) step() {
	for {
		if c.busy {
			return
		}
		if c.current != nil && !c.haveNextOp {
			op, st := c.current.TryNext(c.stepFn)
			if st == exec.NextWait {
				return
			}
			if st == exec.NextDone {
				c.finishThread()
				continue
			}
			c.nextOp, c.haveNextOp = op, true
		}
		if len(c.interrupts) > 0 {
			intr := c.interrupts[0]
			c.interrupts = c.interrupts[1:]
			c.Stats.Interrupts++
			c.busy = true
			// Interrupts are rare, so this closure is off the per-op path.
			intr.Service(func() {
				c.busy = false
				c.step()
			})
			return
		}
		if c.current == nil {
			if len(c.runQueue) == 0 {
				return
			}
			c.current = c.runQueue[0]
			c.runQueue = c.runQueue[1:]
			c.lastStart = c.engine.Now()
			continue
		}
		c.haveNextOp = false
		c.busy = true
		c.execute(c.nextOp)
		return
	}
}

func (c *Core) finishThread() {
	t := c.current
	c.current = nil
	c.Stats.BusyPs += uint64(c.engine.Now().Sub(c.lastStart))
	if err := t.Err(); err != nil {
		panic(fmt.Sprintf("%s: workload thread %q failed: %v", c.cfg.Name, t.Name(), err))
	}
	if fn := c.onExit[t]; fn != nil {
		delete(c.onExit, t)
		fn()
	}
}

// computeDuration converts an instruction count into time on this core.
func (c *Core) computeDuration(instrs int64) sim.Duration {
	cycles := float64(instrs) * c.cfg.CPI
	return sim.Duration(cycles*float64(c.cfg.Clock.Period) + 0.5)
}

func (c *Core) execute(op exec.Op) {
	// The core is busy until the op completes, so c.current is stable for
	// the op's lifetime and the prebound callbacks may use it directly.
	t := c.current
	switch op.Kind {
	case exec.OpCompute:
		c.Stats.Instructions += uint64(op.Instrs)
		c.engine.ScheduleArg(c.computeDuration(op.Instrs), c.computeFn, nil)
	case exec.OpLoad, exec.OpStore, exec.OpRMW:
		c.Stats.MemOps++
		c.Stats.Instructions++
		c.op = op
		c.memAccess()
	case exec.OpSyscall:
		if c.syscall == nil {
			panic(fmt.Sprintf("%s: syscall %d with no handler installed", c.cfg.Name, op.Syscall))
		}
		// Charge the kernel's syscall entry/exit cost, then dispatch.
		c.engine.Schedule(c.computeDuration(c.kernel.Costs().SyscallInstrs), func() {
			c.syscall(c, int(op.Syscall), op.Args, func(ret uint64) {
				c.completeOp(t, exec.Result{Value: ret})
			})
		})
	default:
		panic(fmt.Sprintf("%s: unknown op kind %v", c.cfg.Name, op.Kind))
	}
}

func (c *Core) completeOp(t *exec.Thread, r exec.Result) {
	t.Complete(r)
	c.busy = false
	c.step()
}

// memAccess translates and performs the in-flight memory operation (c.op),
// handling page faults locally (this is a CPU core: faults trap straight
// into the kernel, then retryMemFn reissues the op).
func (c *Core) memAccess() {
	if c.mmu == nil {
		c.access(mem.PAddr(c.op.Addr))
		return
	}
	c.mmu.Translate(c.op.Addr, c.op.Kind != exec.OpLoad, c.translateCb)
}

// ServicePageFault runs the kernel's demand-paging handler on this core:
// it charges the trap cost, installs the mapping, replays the PTE store
// through the cache hierarchy (so walkers and other cores see it coherently)
// and then resumes the faulting access.
func (c *Core) ServicePageFault(fault *vm.Fault, resume func()) {
	c.Stats.PageFaults++
	cost := c.computeDuration(c.kernel.Costs().PageFaultInstrs)
	c.engine.Schedule(cost, func() {
		pteAddr := c.kernel.HandlePageFault(fault)
		c.port.Access(mem.Request{Type: mem.Write, Addr: pteAddr, Size: 8}, func() {
			resume()
		})
	})
}

// access performs the timed cache access for c.op; the prebound accessCb
// applies the functional data movement at completion time.
func (c *Core) access(pa mem.PAddr) {
	var typ mem.AccessType
	switch c.op.Kind {
	case exec.OpLoad:
		typ = mem.Read
	case exec.OpStore:
		typ = mem.Write
	case exec.OpRMW:
		typ = mem.ReadModifyWrite
	}
	c.pa = pa
	c.port.Access(mem.Request{Type: typ, Addr: pa, Size: int(c.op.Size)}, c.accessCb)
}

// PerformFunctional applies the functional effect of a completed memory
// operation against physical memory and returns the value the thread should
// observe. It is shared by the CPU and MTTOP core models.
func PerformFunctional(phys *mem.Physical, op exec.Op, pa mem.PAddr) uint64 {
	switch op.Kind {
	case exec.OpLoad:
		return readSized(phys, pa, int(op.Size))
	case exec.OpStore:
		writeSized(phys, pa, int(op.Size), op.Value)
		return 0
	case exec.OpRMW:
		old := readSized(phys, pa, int(op.Size))
		writeSized(phys, pa, int(op.Size), op.ApplyRMW(old))
		return old
	default:
		panic(fmt.Sprintf("cpu: functional perform of %v", op.Kind))
	}
}

func readSized(phys *mem.Physical, pa mem.PAddr, size int) uint64 {
	switch size {
	case 1:
		return uint64(phys.ReadUint8(pa))
	case 4:
		return uint64(phys.ReadUint32(pa))
	case 8:
		return phys.ReadUint64(pa)
	default:
		panic(fmt.Sprintf("cpu: unsupported access size %d", size))
	}
}

func writeSized(phys *mem.Physical, pa mem.PAddr, size int, v uint64) {
	switch size {
	case 1:
		phys.WriteUint8(pa, uint8(v))
	case 4:
		phys.WriteUint32(pa, uint32(v))
	case 8:
		phys.WriteUint64(pa, v)
	default:
		panic(fmt.Sprintf("cpu: unsupported access size %d", size))
	}
}

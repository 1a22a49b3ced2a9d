package cpu_test

import (
	"fmt"
	"strings"
	"testing"

	"ccsvm/internal/cpu"
	"ccsvm/internal/exec"
	"ccsvm/internal/kernelos"
	"ccsvm/internal/mem"
	"ccsvm/internal/sim"
	"ccsvm/internal/vm"
)

// latencyPort is a flat-latency memory port: every access completes after a
// fixed delay with no coherence. It isolates the core model from the cache
// hierarchy.
type latencyPort struct {
	engine   *sim.Engine
	latency  sim.Duration
	accesses int
}

func (p *latencyPort) Access(req mem.Request, done func()) {
	p.accesses++
	p.engine.Schedule(p.latency, done)
}

// coreRig is a CPU core wired to a kernel, a process and an MMU, like the
// CCSVM machine builds it, but behind a flat-latency port.
type coreRig struct {
	engine *sim.Engine
	gate   *exec.Gate
	core   *cpu.Core
	kernel *kernelos.Kernel
	proc   *kernelos.Process
	phys   *mem.Physical
	port   *latencyPort
}

func newCoreRig(t *testing.T) *coreRig {
	t.Helper()
	engine := sim.NewEngine()
	gate := exec.NewGate()
	gate.Bind(engine)
	phys := mem.NewPhysical(16 << 20)
	kernel := kernelos.NewKernel(phys, 16, kernelos.DefaultCosts())
	proc := kernel.NewProcess()
	port := &latencyPort{engine: engine, latency: 2 * sim.Nanosecond}
	mmu := vm.NewMMU(vm.TLBConfig{Entries: 8}, port, phys)
	core := cpu.New(engine, gate, cpu.Config{
		Clock: sim.NewClock("cpu", 2.9e9),
		CPI:   2.0,
		Name:  "cpu0",
	}, port, mmu, phys, kernel)
	mmu.SetRoot(proc.Root())
	return &coreRig{engine: engine, gate: gate, core: core, kernel: kernel, proc: proc, phys: phys, port: port}
}

func (r *coreRig) run(t *testing.T, fn func(c *exec.Context)) {
	t.Helper()
	done := false
	th := exec.NewThread(r.gate, 0, "t0", fn)
	r.core.Run(th, func() { done = true })
	r.gate.Drive(r.engine.Step)
	if !done {
		t.Fatal("thread did not finish")
	}
}

// TestCoreFaultAndSyscallPaths is the table-driven coverage of the rare
// paths PR 3's allocation-elimination rewrite left untested: demand-paging
// faults (the translate-fault-service-retry loop), syscall dispatch with a
// simulated-time handler, and mixes of both with ordinary ops.
func TestCoreFaultAndSyscallPaths(t *testing.T) {
	const sysEcho = 7
	cases := []struct {
		name       string
		program    func(t *testing.T, r *coreRig, c *exec.Context)
		wantFaults uint64
		wantSysc   bool
	}{
		{
			name: "load faults once then hits",
			program: func(t *testing.T, r *coreRig, c *exec.Context) {
				va := r.proc.Sbrk(mem.PageSize)
				if got := c.Load64(va); got != 0 {
					t.Errorf("fresh page read %#x, want 0", got)
				}
				if got := c.Load64(va + 8); got != 0 {
					t.Errorf("second read on the mapped page = %#x, want 0", got)
				}
			},
			wantFaults: 1,
		},
		{
			name: "store fault then read back",
			program: func(t *testing.T, r *coreRig, c *exec.Context) {
				va := r.proc.Sbrk(mem.PageSize)
				c.Store64(va, 0xdead)
				if got := c.Load64(va); got != 0xdead {
					t.Errorf("read back %#x, want 0xdead", got)
				}
			},
			wantFaults: 1,
		},
		{
			name: "rmw faults and chains",
			program: func(t *testing.T, r *coreRig, c *exec.Context) {
				va := r.proc.Sbrk(mem.PageSize)
				if old := c.AtomicAdd64(va, 5); old != 0 {
					t.Errorf("first fetch-add returned %#x, want 0", old)
				}
				if old := c.AtomicAdd64(va, 1); old != 5 {
					t.Errorf("second fetch-add returned %#x, want 5", old)
				}
			},
			wantFaults: 1,
		},
		{
			name: "faults on distinct pages",
			program: func(t *testing.T, r *coreRig, c *exec.Context) {
				va := r.proc.Sbrk(3 * mem.PageSize)
				c.Store8(va, 1)
				c.Store8(va+mem.PageSize, 2)
				c.Store8(va+2*mem.PageSize, 3)
			},
			wantFaults: 3,
		},
		{
			name: "syscall returns value after simulated time",
			program: func(t *testing.T, r *coreRig, c *exec.Context) {
				if ret := c.Syscall(sysEcho, 41); ret != 42 {
					t.Errorf("syscall returned %d, want 42", ret)
				}
			},
			wantSysc: true,
		},
		{
			name: "syscall between faulting accesses",
			program: func(t *testing.T, r *coreRig, c *exec.Context) {
				va := r.proc.Sbrk(mem.PageSize)
				c.Store32(va, 9)
				if ret := c.Syscall(sysEcho, uint64(c.Load32(va))); ret != 10 {
					t.Errorf("syscall returned %d, want 10", ret)
				}
				c.Compute(100)
			},
			wantFaults: 1,
			wantSysc:   true,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			r := newCoreRig(t)
			sysCalls := 0
			r.core.SetSyscallHandler(func(core *cpu.Core, num int, args []uint64, done func(uint64)) {
				if num != sysEcho {
					t.Errorf("syscall number %d, want %d", num, sysEcho)
				}
				sysCalls++
				// Service over simulated time, like the MIFD driver does.
				r.engine.Schedule(10*sim.Nanosecond, func() { done(args[0] + 1) })
			})
			r.run(t, func(c *exec.Context) { tc.program(t, r, c) })
			if got := r.core.Stats.PageFaults; got != tc.wantFaults {
				t.Errorf("page faults = %d, want %d", got, tc.wantFaults)
			}
			if tc.wantSysc != (sysCalls > 0) {
				t.Errorf("syscalls taken = %d, want taken=%v", sysCalls, tc.wantSysc)
			}
			if r.engine.Pending() != 0 {
				t.Errorf("%d events still pending after run", r.engine.Pending())
			}
		})
	}
}

// TestCoreSyscallWithoutHandlerPanics pins the loud failure mode.
func TestCoreSyscallWithoutHandlerPanics(t *testing.T) {
	r := newCoreRig(t)
	// Core.Run steps synchronously, so the panic can fire before engine.Run.
	defer func() {
		if recover() == nil {
			t.Fatal("syscall without a handler did not panic")
		}
	}()
	th := exec.NewThread(r.gate, 0, "t0", func(c *exec.Context) { c.Syscall(1) })
	r.core.Run(th, nil)
	r.gate.Drive(r.engine.Step)
}

// TestCoreInterruptBetweenInstructions checks that externally raised work
// (the MIFD path) runs between a thread's operations, is counted, and does
// not corrupt the in-flight op state of the interrupted thread. The
// interrupt is raised from engine context (a scheduled event), as the MIFD
// does — RaiseInterrupt must not be called from workload code.
func TestCoreInterruptBetweenInstructions(t *testing.T) {
	r := newCoreRig(t)
	serviced := false
	va := r.proc.Sbrk(mem.PageSize)
	// Lands mid-thread: the core is busy with an op, defers the interrupt,
	// and services it before issuing the next one.
	r.engine.Schedule(5*sim.Nanosecond, func() {
		r.core.RaiseInterrupt(cpu.Interrupt{
			Name: "test",
			Service: func(done func()) {
				serviced = true
				r.engine.Schedule(5*sim.Nanosecond, done)
			},
		})
	})
	r.run(t, func(c *exec.Context) {
		c.Store64(va, 1)
		c.Compute(1000) // ~690 ns: plenty of ops in flight after 5 ns
		// The interrupt must not disturb the value path of nearby ops.
		if got := c.AtomicAdd64(va, 2); got != 1 {
			t.Errorf("fetch-add around the interrupt returned %#x, want 1", got)
		}
	})
	if !serviced {
		t.Fatal("interrupt was not serviced")
	}
	if got := r.core.Stats.Interrupts; got != 1 {
		t.Fatalf("interrupt counter = %d, want 1", got)
	}
}

// interrupter reaches RaiseInterrupt through an interface method.
type interrupter interface{ RaiseInterrupt(cpu.Interrupt) }

// TestRaiseInterruptFromWorkloadPanics checks RaiseInterrupt's engine-context
// rule at run time. A workload body that reaches it — by a direct call,
// through a func value or through an interface method, before its first op or
// between ops — must end the run in a panic naming RaiseInterrupt. Unchecked,
// a call before the first op re-enters the core's step under the thread's
// launch: the core runs the exit callback before any of the 3 ops completes,
// and the op it did issue then completes with no thread on the core.
func TestRaiseInterruptFromWorkloadPanics(t *testing.T) {
	probe := cpu.Interrupt{Name: "probe", Service: func(done func()) { done() }}
	// Each body issues 3 ops and raises the interrupt just before op raiseAt.
	bodies := []struct {
		name string
		body func(core *cpu.Core, raiseAt int) func(*exec.Context)
	}{
		{"direct", func(core *cpu.Core, raiseAt int) func(*exec.Context) {
			return func(c *exec.Context) {
				for op := 0; op < 3; op++ {
					if op == raiseAt {
						core.RaiseInterrupt(probe)
					}
					c.Compute(10)
				}
			}
		}},
		{"func value", func(core *cpu.Core, raiseAt int) func(*exec.Context) {
			return func(c *exec.Context) {
				raise := core.RaiseInterrupt
				for op := 0; op < 3; op++ {
					if op == raiseAt {
						raise(probe)
					}
					c.Compute(10)
				}
			}
		}},
		{"interface method", func(core *cpu.Core, raiseAt int) func(*exec.Context) {
			return func(c *exec.Context) {
				var in interrupter = core
				for op := 0; op < 3; op++ {
					if op == raiseAt {
						in.RaiseInterrupt(probe)
					}
					c.Compute(10)
				}
			}
		}},
	}
	for _, b := range bodies {
		for _, at := range []struct {
			name string
			op   int
		}{{"before first op", 0}, {"between ops", 1}} {
			t.Run(b.name+"/"+at.name, func(t *testing.T) {
				r := newCoreRig(t)
				th := exec.NewThread(r.gate, 0, "t0", b.body(r.core, at.op))
				exited := false
				got := func() (p any) {
					defer func() { p = recover() }()
					r.core.Run(th, func() { exited = true })
					r.gate.Drive(r.engine.Step)
					return nil
				}()
				if !strings.Contains(fmt.Sprint(got), "RaiseInterrupt") {
					t.Fatalf("run ended with panic %v (exit callback run %v, %d instructions, finished %v), want a panic naming RaiseInterrupt",
						got, exited, r.core.Stats.Instructions, th.Finished())
				}
			})
		}
	}
}

// TestCoreInterruptFromExitCallback: a thread's exit callback is core code,
// not the workload's, so it may raise an interrupt, which the core services
// once the thread is gone.
func TestCoreInterruptFromExitCallback(t *testing.T) {
	r := newCoreRig(t)
	serviced := false
	th := exec.NewThread(r.gate, 0, "t0", func(c *exec.Context) { c.Compute(10) })
	r.core.Run(th, func() {
		r.core.RaiseInterrupt(cpu.Interrupt{Name: "exit", Service: func(done func()) {
			serviced = true
			done()
		}})
	})
	r.gate.Drive(r.engine.Step)
	if !serviced || !r.core.Idle() {
		t.Fatalf("interrupt raised on exit: serviced %v, core idle %v", serviced, r.core.Idle())
	}
}

// TestCoreQueuesThreads checks run-queue scheduling: two threads on one core
// both complete, in order, with onExit called for each.
func TestCoreQueuesThreads(t *testing.T) {
	r := newCoreRig(t)
	va := r.proc.Sbrk(mem.PageSize)
	var exits []int
	t1 := exec.NewThread(r.gate, 1, "t1", func(c *exec.Context) { c.Store64(va, 10) })
	t2 := exec.NewThread(r.gate, 2, "t2", func(c *exec.Context) {
		if got := c.Load64(va); got != 10 {
			t.Errorf("queued thread read %#x, want 10 (runs after t1)", got)
		}
	})
	r.core.Run(t1, func() { exits = append(exits, 1) })
	r.core.Run(t2, func() { exits = append(exits, 2) })
	r.gate.Drive(r.engine.Step)
	if len(exits) != 2 || exits[0] != 1 || exits[1] != 2 {
		t.Fatalf("exit order %v, want [1 2]", exits)
	}
	if !r.core.Idle() {
		t.Fatal("core not idle after both threads finished")
	}
}

// TestCoreInstructionAccounting checks the instrs/mem_ops counters and the
// CPI-scaled compute timing.
func TestCoreInstructionAccounting(t *testing.T) {
	r := newCoreRig(t)
	va := r.proc.Sbrk(mem.PageSize)
	r.run(t, func(c *exec.Context) {
		c.Compute(100)
		c.Store64(va, 1)
		c.Load64(va)
	})
	if got := r.core.Stats.Instructions; got != 102 {
		t.Fatalf("instructions = %d, want 102", got)
	}
	if got := r.core.Stats.MemOps; got != 2 {
		t.Fatalf("mem_ops = %d, want 2", got)
	}
	// 100 instructions at CPI 2.0 on a 2.9 GHz clock is ~69 ns of compute
	// alone; the run must have consumed at least that much simulated time.
	if r.engine.Now() < sim.Time(68*sim.Nanosecond) {
		t.Fatalf("run consumed %v, want >= ~69 ns of compute time", r.engine.Now())
	}
}

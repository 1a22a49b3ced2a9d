package xthreads_test

// The xthreads library calls only have meaning on a machine whose cores run
// them — spawn goes through the MIFD syscall, join and barrier through
// coherent shared memory — so these tests drive the scaled-down CCSVM machine
// end to end, as the paper's Figure 4 programs do.

import (
	"testing"

	"ccsvm/internal/core"
	"ccsvm/internal/mem"
	"ccsvm/internal/xthreads"
)

// TestCreateMThreadsSpawnAndJoin is the spawn/join round trip of Table 1:
// create_mthread launches a range of MTTOP threads, each signals its
// condition slot when done, and the CPU's Wait observes every signal through
// coherent shared memory.
func TestCreateMThreadsSpawnAndJoin(t *testing.T) {
	m := core.NewMachine(core.SmallConfig())
	defer m.Shutdown()

	const first, last = 0, 7
	n := last - first + 1
	ran := make([]bool, n)
	kid := m.RegisterKernel(func(c *xthreads.MTTOPContext) {
		ran[c.TID()] = true
		// Each thread contributes to a shared sum, then signals its slot.
		c.AtomicAdd64(c.Args(), uint64(c.TID())+1)
		c.SignalSlot(c.Args()+8, first)
	})

	_, err := m.RunProgram(func(c *xthreads.CPUContext) {
		area := c.Malloc(8 + uint64(4*n)) // sum + condition array
		c.Store64(area, 0)
		c.InitConditions(area+8, first, last, xthreads.CondIdle)
		c.CreateMThreads(kid, area, first, last)
		c.Wait(area+8, first, last)
		if got := c.Load64(area); got != uint64(n*(n+1)/2) {
			t.Errorf("joined sum = %d, want %d", got, n*(n+1)/2)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for tid, ok := range ran {
		if !ok {
			t.Fatalf("MTTOP thread %d never ran", tid)
		}
	}
}

// TestCPUMTTOPBarrier runs two barrier phases: every MTTOP thread writes a
// phase value, meets the CPU at the global barrier, and must not observe the
// next phase before the CPU flips the sense — the CPU half resets the slots
// and releases the workers.
func TestCPUMTTOPBarrier(t *testing.T) {
	m := core.NewMachine(core.SmallConfig())
	defer m.Shutdown()

	const first, last = 0, 5
	n := last - first + 1
	kid := m.RegisterKernel(func(c *xthreads.MTTOPContext) {
		barrier, sense := c.Args(), c.Args()+mem.VAddr(4*n)
		phase1 := c.Args() + mem.VAddr(4*n) + 4
		// Phase 1: contribute, then meet everyone at the barrier.
		c.AtomicAdd64(phase1, 1)
		c.Barrier(barrier, first, sense)
		// Phase 2: every thread must see the complete phase-1 total.
		if got := c.Load64(phase1); got != uint64(n) {
			// Report through memory: a second counter of mismatches.
			c.AtomicAdd64(phase1+8, 1)
		}
		c.SignalSlot(phase1+16, first)
	})

	_, err := m.RunProgram(func(c *xthreads.CPUContext) {
		layout := c.Malloc(uint64(4*n) + 4 + 24 + uint64(4*n))
		barrier, sense := layout, layout+mem.VAddr(4*n)
		phase1 := layout + mem.VAddr(4*n) + 4
		mismatches := phase1 + 8
		cond := phase1 + 16
		c.InitConditions(barrier, first, last, 0)
		c.Store32(sense, 0)
		c.Store64(phase1, 0)
		c.Store64(mismatches, 0)
		c.InitConditions(cond, first, last, xthreads.CondIdle)

		c.CreateMThreads(kid, layout, first, last)
		c.CPUMTTOPBarrier(barrier, first, last, sense)
		c.Wait(cond, first, last)
		if got := c.Load64(mismatches); got != 0 {
			t.Errorf("%d threads crossed the barrier before phase 1 completed", got)
		}
		// The CPU half must have reset every barrier slot for reuse.
		for tid := first; tid <= last; tid++ {
			if got := c.Load32(barrier + mem.VAddr(4*(tid-first))); got != 0 {
				t.Errorf("barrier slot %d = %d after barrier, want 0", tid, got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMTTOPMallocThroughServingCPU is the paper's mttop_malloc (§5.3.2): an
// MTTOP thread requests heap memory through the shared MallocArea, a CPU
// thread serves it, and the returned pointer is usable shared memory.
func TestMTTOPMallocThroughServingCPU(t *testing.T) {
	m := core.NewMachine(core.SmallConfig())
	defer m.Shutdown()

	const first, last = 0, 3
	n := last - first + 1
	var area xthreads.MallocArea
	kid := m.RegisterKernel(func(c *xthreads.MTTOPContext) {
		ptr := c.MTTOPMalloc(area, 64)
		c.Store64(ptr, uint64(c.TID())+100) // the allocation is writable
		c.Store64(c.Args()+mem.VAddr(8*c.TID()), uint64(ptr))
		c.SignalSlot(c.Args()+mem.VAddr(8*n), first)
	})

	_, err := m.RunProgram(func(c *xthreads.CPUContext) {
		ptrs := c.Malloc(uint64(8*n) + uint64(4*n))
		cond := ptrs + mem.VAddr(8*n)
		c.InitConditions(cond, first, last, xthreads.CondIdle)
		area = c.AllocMallocArea(first, last)
		c.CreateMThreads(kid, ptrs, first, last)
		c.ServeMallocs(area, first, last, func(c *xthreads.CPUContext) bool {
			for tid := first; tid <= last; tid++ {
				if c.Load32(cond+mem.VAddr(4*(tid-first))) != xthreads.CondReady {
					return false
				}
			}
			return true
		})
		seen := map[uint64]bool{}
		for tid := first; tid <= last; tid++ {
			ptr := c.Load64(ptrs + mem.VAddr(8*tid))
			if ptr == 0 {
				t.Errorf("thread %d got a nil allocation", tid)
				continue
			}
			if seen[ptr] {
				t.Errorf("allocation %#x handed to two threads", ptr)
			}
			seen[ptr] = true
			if got := c.Load64(mem.VAddr(ptr)); got != uint64(tid)+100 {
				t.Errorf("thread %d's allocation holds %d, want %d", tid, got, tid+100)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRuntimeKernelTableAndThreads pins the runtime bookkeeping: kernel IDs
// are dense, unknown IDs panic, and every created thread belongs to the
// machine's gate, so Shutdown tears it down.
func TestRuntimeKernelTableAndThreads(t *testing.T) {
	m := core.NewMachine(core.SmallConfig())
	rt := m.Runtime

	k0 := rt.RegisterKernel(func(*xthreads.MTTOPContext) {})
	k1 := rt.RegisterKernel(func(*xthreads.MTTOPContext) {})
	if k0 != 0 || k1 != 1 {
		t.Fatalf("kernel IDs = %d, %d, want 0, 1", k0, k1)
	}
	if rt.Kernel(k1) == nil {
		t.Fatal("registered kernel not retrievable")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unknown kernel ID did not panic")
			}
		}()
		rt.Kernel(99)
	}()

	tt := rt.NewMTTOPThread(k0, 7, 0)
	if tt == nil || tt.ID() != 7 || tt.Name() != "mttop-k0-t7" {
		t.Fatalf("NewMTTOPThread returned %v, want thread 7 named mttop-k0-t7", tt)
	}
	// Shutdown must not hang on the never-started thread.
	m.Shutdown()
	if !tt.Finished() {
		t.Fatal("Shutdown left a thread of the runtime unfinished")
	}
}

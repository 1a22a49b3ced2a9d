package core

import (
	"runtime"
	"strings"
	"testing"

	"ccsvm/internal/mem"
	"ccsvm/internal/sim"
	"ccsvm/internal/simarena"
	"ccsvm/internal/xthreads"
)

// TestTable2Configuration pins the default configuration to the paper's
// Table 2, which `paper-figs -fig table2` prints.
func TestTable2Configuration(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.NumCPUs != 4 || cfg.NumMTTOPs != 10 {
		t.Fatalf("core counts %d/%d, want 4 CPUs and 10 MTTOPs", cfg.NumCPUs, cfg.NumMTTOPs)
	}
	if cfg.CPUCPI != 2.0 {
		t.Fatalf("CPU CPI %v, want 2.0 (max IPC 0.5)", cfg.CPUCPI)
	}
	if cfg.MTTOPContexts != 128 || cfg.MTTOPIssueWidth != 8 {
		t.Fatalf("MTTOP contexts/issue %d/%d, want 128/8", cfg.MTTOPContexts, cfg.MTTOPIssueWidth)
	}
	if got := cfg.PeakMTTOPOpsPerCycle(); got != 80 {
		t.Fatalf("peak MTTOP throughput %d ops/cycle, want 80", got)
	}
	if got := cfg.TotalMTTOPThreadContexts(); got != 1280 {
		t.Fatalf("total MTTOP contexts %d, want 1280", got)
	}
	if cfg.CPUL1.SizeBytes != 64*1024 || cfg.MTTOPL1.SizeBytes != 16*1024 {
		t.Fatal("L1 sizes do not match Table 2")
	}
	if cfg.L2Banks != 4 || cfg.L2BankBytes != 1<<20 {
		t.Fatal("L2 banking does not match Table 2 (4 x 1MB)")
	}
	if cfg.TLBEntries != 64 {
		t.Fatal("TLB size does not match Table 2")
	}
	if cfg.DRAM.Latency != 100*sim.Nanosecond {
		t.Fatal("DRAM latency does not match Table 2")
	}
	if cfg.Torus.LinkBandwidth != 12e9 {
		t.Fatal("torus link bandwidth does not match Table 2")
	}
}

func TestConfigValidateCatchesErrors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumMTTOPs = 0
	err := cfg.Validate()
	if err == nil {
		t.Fatal("expected validation error")
	}
	if err.Error() == "" {
		t.Fatal("empty error message")
	}
}

// TestValidateCapsL1Count: the directory's sharer sets and the SWMR
// checker's holder sets have one bit per L1, so a chip has at most 64 cores.
func TestValidateCapsL1Count(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumCPUs, cfg.NumMTTOPs = 4, 60
	if err := cfg.Validate(); err != nil {
		t.Fatalf("64 L1s rejected: %v", err)
	}
	NewMachine(cfg).Shutdown()
	cfg.NumMTTOPs = 61
	if err := cfg.Validate(); err == nil {
		t.Fatal("65 L1s accepted")
	}
}

// TestVectorAddXthreads is the paper's Figure 4 program: the CPU allocates
// three vectors, spawns one MTTOP thread per element, waits on per-thread
// done flags, and the sums must be correct. It exercises the full stack: the
// MIFD launch path, MTTOP TLB misses and page faults forwarded to the CPU,
// the coherence protocol, and xthreads wait/signal.
func TestVectorAddXthreads(t *testing.T) {
	const n = 64
	m := NewMachine(SmallConfig())
	defer m.Shutdown()

	addKernel := m.RegisterKernel(func(ctx *xthreads.MTTOPContext) {
		args := ctx.Args()
		v1 := mem.VAddr(ctx.Load64(args + 0))
		v2 := mem.VAddr(ctx.Load64(args + 8))
		sum := mem.VAddr(ctx.Load64(args + 16))
		done := mem.VAddr(ctx.Load64(args + 24))
		tid := ctx.TID()
		a := ctx.Load32(v1 + mem.VAddr(4*tid))
		b := ctx.Load32(v2 + mem.VAddr(4*tid))
		ctx.Compute(1)
		ctx.Store32(sum+mem.VAddr(4*tid), a+b)
		ctx.SignalSlot(done, 0)
	})

	var sumBase mem.VAddr
	_, err := m.RunProgram(func(ctx *xthreads.CPUContext) {
		v1 := ctx.Malloc(4 * n)
		v2 := ctx.Malloc(4 * n)
		sum := ctx.Malloc(4 * n)
		done := ctx.Malloc(4 * n)
		args := ctx.Malloc(32)
		sumBase = sum
		for i := 0; i < n; i++ {
			ctx.Store32(v1+mem.VAddr(4*i), uint32(i))
			ctx.Store32(v2+mem.VAddr(4*i), uint32(10*i))
			ctx.Store32(done+mem.VAddr(4*i), xthreads.CondIdle)
		}
		ctx.Store64(args+0, uint64(v1))
		ctx.Store64(args+8, uint64(v2))
		ctx.Store64(args+16, uint64(sum))
		ctx.Store64(args+24, uint64(done))
		ctx.CreateMThreads(addKernel, args, 0, n-1)
		ctx.Wait(done, 0, n-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got := m.MemReadUint32(sumBase + mem.VAddr(4*i)); got != uint32(11*i) {
			t.Fatalf("sum[%d] = %d, want %d", i, got, 11*i)
		}
	}
	// The MTTOP cores must have participated (threads dispatched) and the
	// sum array, first touched by MTTOP threads, must have page-faulted
	// through the MIFD to a CPU core.
	if v := m.MIFD.Stats.ThreadsDispatched; v != n {
		t.Fatalf("dispatched %d threads, want %d", v, n)
	}
	if m.Kernel.Stats.PageFaults == 0 {
		t.Fatal("expected demand-paging faults")
	}
	if !m.Checker.Ok() {
		t.Fatalf("coherence violations: %v", m.Checker.Violations)
	}
}

// TestMTTOPPageFaultForwarding makes MTTOP threads the first toucher of
// several pages: their faults must be forwarded through the MIFD to a CPU
// core (Section 3.2.1), serviced there, and the stores must then succeed.
func TestMTTOPPageFaultForwarding(t *testing.T) {
	const workers = 8
	m := NewMachine(SmallConfig())
	defer m.Shutdown()

	kernel := m.RegisterKernel(func(ctx *xthreads.MTTOPContext) {
		args := ctx.Args()
		buf := mem.VAddr(ctx.Load64(args + 0))
		done := mem.VAddr(ctx.Load64(args + 8))
		tid := ctx.TID()
		// Each thread touches its own fresh page.
		ctx.Store32(buf+mem.VAddr(tid*mem.PageSize), uint32(tid+1))
		ctx.SignalSlot(done, 0)
	})
	var bufBase mem.VAddr
	_, err := m.RunProgram(func(ctx *xthreads.CPUContext) {
		done := ctx.Malloc(4 * workers)
		args := ctx.Malloc(16)
		ctx.InitConditions(done, 0, workers-1, xthreads.CondIdle)
		// Skip to a page boundary so the buffer's pages are untouched by the
		// CPU; the MTTOP threads will take the faults.
		ctx.Malloc(uint64(mem.PageSize))
		buf := ctx.Malloc(uint64((workers + 1) * mem.PageSize))
		bufBase = buf
		ctx.Store64(args+0, uint64(buf))
		ctx.Store64(args+8, uint64(done))
		ctx.CreateMThreads(kernel, args, 0, workers-1)
		ctx.Wait(done, 0, workers-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.MIFD.Stats.PageFaultsForwarded == 0 {
		t.Fatal("expected MTTOP page faults to be forwarded through the MIFD")
	}
	for i := 0; i < workers; i++ {
		if got := m.MemReadUint32(bufBase + mem.VAddr(i*mem.PageSize)); got != uint32(i+1) {
			t.Fatalf("page %d holds %d after fault handling", i, got)
		}
	}
}

// TestSequentialConsistencyMessagePassing is the classic message-passing
// litmus test run across the CPU/MTTOP boundary: the CPU writes data then
// sets a flag; every MTTOP thread that observes the flag must observe the
// data. Under SC (the architecture's model, Section 3.2.3) no stale data can
// be returned because each thread has one memory operation in flight and the
// coherence protocol enforces SWMR.
func TestSequentialConsistencyMessagePassing(t *testing.T) {
	const workers = 16
	m := NewMachine(SmallConfig())
	defer m.Shutdown()

	kernel := m.RegisterKernel(func(ctx *xthreads.MTTOPContext) {
		args := ctx.Args()
		data := mem.VAddr(ctx.Load64(args + 0))
		flag := mem.VAddr(ctx.Load64(args + 8))
		result := mem.VAddr(ctx.Load64(args + 16))
		done := mem.VAddr(ctx.Load64(args + 24))
		for ctx.Load32(flag) == 0 {
			ctx.Compute(16)
		}
		ctx.Store32(result+mem.VAddr(4*ctx.TID()), ctx.Load32(data))
		ctx.SignalSlot(done, 0)
	})

	var resultBase mem.VAddr
	_, err := m.RunProgram(func(ctx *xthreads.CPUContext) {
		data := ctx.Malloc(4)
		flag := ctx.Malloc(4)
		result := ctx.Malloc(4 * workers)
		done := ctx.Malloc(4 * workers)
		args := ctx.Malloc(32)
		resultBase = result
		ctx.Store32(data, 0)
		ctx.Store32(flag, 0)
		ctx.InitConditions(done, 0, workers-1, xthreads.CondIdle)
		ctx.Store64(args+0, uint64(data))
		ctx.Store64(args+8, uint64(flag))
		ctx.Store64(args+16, uint64(result))
		ctx.Store64(args+24, uint64(done))
		ctx.CreateMThreads(kernel, args, 0, workers-1)
		// Give the workers time to start spinning, then publish.
		ctx.Compute(5000)
		ctx.Store32(data, 777)
		ctx.Store32(flag, 1)
		ctx.Wait(done, 0, workers-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < workers; i++ {
		if got := m.MemReadUint32(resultBase + mem.VAddr(4*i)); got != 777 {
			t.Fatalf("worker %d observed %d after flag; SC violated", i, got)
		}
	}
}

// TestCPUMTTOPBarrier runs a two-phase computation separated by the global
// CPU+MTTOP barrier of Table 1: phase 2 must observe every phase-1 write.
func TestCPUMTTOPBarrier(t *testing.T) {
	const workers = 8
	m := NewMachine(SmallConfig())
	defer m.Shutdown()

	kernel := m.RegisterKernel(func(ctx *xthreads.MTTOPContext) {
		args := ctx.Args()
		arr := mem.VAddr(ctx.Load64(args + 0))
		barrier := mem.VAddr(ctx.Load64(args + 8))
		sense := mem.VAddr(ctx.Load64(args + 16))
		out := mem.VAddr(ctx.Load64(args + 24))
		done := mem.VAddr(ctx.Load64(args + 32))
		tid := ctx.TID()
		// Phase 1: each thread writes its slot.
		ctx.Store32(arr+mem.VAddr(4*tid), uint32(tid+1))
		ctx.Barrier(barrier, 0, sense)
		// Phase 2: each thread sums every slot (must see all phase-1 writes).
		total := uint32(0)
		for i := 0; i < workers; i++ {
			total += ctx.Load32(arr + mem.VAddr(4*i))
		}
		ctx.Store32(out+mem.VAddr(4*tid), total)
		ctx.SignalSlot(done, 0)
	})

	var outBase mem.VAddr
	_, err := m.RunProgram(func(ctx *xthreads.CPUContext) {
		arr := ctx.Malloc(4 * workers)
		barrier := ctx.Malloc(4 * workers)
		sense := ctx.Malloc(4)
		out := ctx.Malloc(4 * workers)
		done := ctx.Malloc(4 * workers)
		args := ctx.Malloc(40)
		outBase = out
		for i := 0; i < workers; i++ {
			ctx.Store32(arr+mem.VAddr(4*i), 0)
			ctx.Store32(barrier+mem.VAddr(4*i), 0)
			ctx.Store32(done+mem.VAddr(4*i), xthreads.CondIdle)
		}
		ctx.Store32(sense, 0)
		ctx.Store64(args+0, uint64(arr))
		ctx.Store64(args+8, uint64(barrier))
		ctx.Store64(args+16, uint64(sense))
		ctx.Store64(args+24, uint64(out))
		ctx.Store64(args+32, uint64(done))
		ctx.CreateMThreads(kernel, args, 0, workers-1)
		ctx.CPUMTTOPBarrier(barrier, 0, workers-1, sense)
		ctx.Wait(done, 0, workers-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := uint32(workers * (workers + 1) / 2)
	for i := 0; i < workers; i++ {
		if got := m.MemReadUint32(outBase + mem.VAddr(4*i)); got != want {
			t.Fatalf("thread %d saw partial phase-1 results: %d, want %d", i, got, want)
		}
	}
}

// TestMTTOPMalloc exercises the mttop_malloc protocol of Section 5.3.2: MTTOP
// threads request allocations, a CPU thread services them, and the returned
// pointers are distinct, heap-resident and usable.
func TestMTTOPMalloc(t *testing.T) {
	const workers = 6
	m := NewMachine(SmallConfig())
	defer m.Shutdown()

	kernel := m.RegisterKernel(func(ctx *xthreads.MTTOPContext) {
		args := ctx.Args()
		area := xthreads.MallocArea{
			Flags:    mem.VAddr(ctx.Load64(args + 0)),
			Sizes:    mem.VAddr(ctx.Load64(args + 8)),
			Results:  mem.VAddr(ctx.Load64(args + 16)),
			FirstTID: 0,
		}
		ptrs := mem.VAddr(ctx.Load64(args + 24))
		done := mem.VAddr(ctx.Load64(args + 32))
		tid := ctx.TID()
		p := ctx.MTTOPMalloc(area, 256)
		// Use the allocation to prove it is mapped and private.
		ctx.Store64(p, uint64(1000+tid))
		ctx.Store64(ptrs+mem.VAddr(8*tid), uint64(p))
		ctx.SignalSlot(done, 0)
	})

	var ptrsBase mem.VAddr
	_, err := m.RunProgram(func(ctx *xthreads.CPUContext) {
		area := ctx.AllocMallocArea(0, workers-1)
		ptrs := ctx.Malloc(8 * workers)
		done := ctx.Malloc(4 * workers)
		args := ctx.Malloc(40)
		ptrsBase = ptrs
		ctx.InitConditions(done, 0, workers-1, xthreads.CondIdle)
		ctx.Store64(args+0, uint64(area.Flags))
		ctx.Store64(args+8, uint64(area.Sizes))
		ctx.Store64(args+16, uint64(area.Results))
		ctx.Store64(args+24, uint64(ptrs))
		ctx.Store64(args+32, uint64(done))
		ctx.CreateMThreads(kernel, args, 0, workers-1)
		ctx.ServeMallocs(area, 0, workers-1, func(c *xthreads.CPUContext) bool {
			for i := 0; i < workers; i++ {
				if c.Load32(done+mem.VAddr(4*i)) != xthreads.CondReady {
					return false
				}
			}
			return true
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool)
	for i := 0; i < workers; i++ {
		p := m.MemReadUint64(ptrsBase + mem.VAddr(8*i))
		if p == 0 || seen[p] {
			t.Fatalf("thread %d got pointer %#x (zero or duplicate)", i, p)
		}
		seen[p] = true
		if got := m.MemReadUint64(mem.VAddr(p)); got != uint64(1000+i) {
			t.Fatalf("allocation for thread %d holds %d", i, got)
		}
	}
}

// TestAtomicsAcrossCores has many MTTOP threads atomically incrementing one
// shared counter; the final value must equal the thread count (lost updates
// would indicate broken read-modify-write coherence).
func TestAtomicsAcrossCores(t *testing.T) {
	const workers = 64
	const incsPerThread = 4
	m := NewMachine(SmallConfig())
	defer m.Shutdown()

	kernel := m.RegisterKernel(func(ctx *xthreads.MTTOPContext) {
		args := ctx.Args()
		counter := mem.VAddr(ctx.Load64(args + 0))
		done := mem.VAddr(ctx.Load64(args + 8))
		for i := 0; i < incsPerThread; i++ {
			ctx.AtomicAdd32(counter, 1)
		}
		ctx.SignalSlot(done, 0)
	})
	var counterVA mem.VAddr
	_, err := m.RunProgram(func(ctx *xthreads.CPUContext) {
		counter := ctx.Malloc(4)
		done := ctx.Malloc(4 * workers)
		args := ctx.Malloc(16)
		counterVA = counter
		ctx.Store32(counter, 0)
		ctx.InitConditions(done, 0, workers-1, xthreads.CondIdle)
		ctx.Store64(args+0, uint64(counter))
		ctx.Store64(args+8, uint64(done))
		ctx.CreateMThreads(kernel, args, 0, workers-1)
		ctx.Wait(done, 0, workers-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.MemReadUint32(counterVA); got != workers*incsPerThread {
		t.Fatalf("counter = %d, want %d (lost atomic updates)", got, workers*incsPerThread)
	}
}

// TestDeterministicReplay runs the same program twice on fresh machines and
// requires identical simulated runtimes and DRAM access counts.
func TestDeterministicReplay(t *testing.T) {
	run := func() (sim.Duration, uint64) {
		m := NewMachine(SmallConfig())
		defer m.Shutdown()
		kernel := m.RegisterKernel(func(ctx *xthreads.MTTOPContext) {
			args := ctx.Args()
			arr := mem.VAddr(ctx.Load64(args + 0))
			done := mem.VAddr(ctx.Load64(args + 8))
			tid := ctx.TID()
			ctx.Store32(arr+mem.VAddr(4*tid), uint32(tid*tid))
			ctx.SignalSlot(done, 0)
		})
		d, err := m.RunProgram(func(ctx *xthreads.CPUContext) {
			arr := ctx.Malloc(4 * 32)
			done := ctx.Malloc(4 * 32)
			args := ctx.Malloc(16)
			ctx.InitConditions(done, 0, 31, xthreads.CondIdle)
			ctx.Store64(args+0, uint64(arr))
			ctx.Store64(args+8, uint64(done))
			ctx.CreateMThreads(kernel, args, 0, 31)
			ctx.Wait(done, 0, 31)
		})
		if err != nil {
			t.Fatal(err)
		}
		return d, m.DRAMAccesses()
	}
	d1, a1 := run()
	d2, a2 := run()
	if d1 != d2 || a1 != a2 {
		t.Fatalf("replay diverged: %v/%d vs %v/%d", d1, a1, d2, a2)
	}
}

// TestTLBShootdownFlushesMTTOPTLBs exercises the Section 3.2.1 shootdown:
// after an MTTOP core has cached translations, a CPU-initiated unmap must
// flush every MTTOP TLB through the MIFD broadcast.
func TestTLBShootdownFlushesMTTOPTLBs(t *testing.T) {
	m := NewMachine(SmallConfig())
	defer m.Shutdown()

	kernel := m.RegisterKernel(func(ctx *xthreads.MTTOPContext) {
		args := ctx.Args()
		arr := mem.VAddr(ctx.Load64(args + 0))
		done := mem.VAddr(ctx.Load64(args + 8))
		ctx.Store32(arr+mem.VAddr(4*ctx.TID()), 1)
		ctx.SignalSlot(done, 0)
	})
	_, err := m.RunProgram(func(ctx *xthreads.CPUContext) {
		arr := ctx.Malloc(4 * 8)
		done := ctx.Malloc(4 * 8)
		args := ctx.Malloc(16)
		ctx.InitConditions(done, 0, 7, xthreads.CondIdle)
		ctx.Store64(args+0, uint64(arr))
		ctx.Store64(args+8, uint64(done))
		ctx.CreateMThreads(kernel, args, 0, 7)
		ctx.Wait(done, 0, 7)
	})
	if err != nil {
		t.Fatal(err)
	}
	occupied := 0
	for _, mc := range m.MTTOPs {
		occupied += mc.MMU().TLB().Occupancy()
	}
	if occupied == 0 {
		t.Fatal("expected MTTOP TLBs to hold translations after the kernel ran")
	}
	// A CPU-initiated unmap triggers the shootdown broadcast.
	m.Kernel.UnmapPage(m.Process, mem.VAddr(0x1000_0000))
	for i, mc := range m.MTTOPs {
		if mc.MMU().TLB().Occupancy() != 0 {
			t.Fatalf("MTTOP core %d TLB not flushed by shootdown", i)
		}
	}
	if v := m.MIFD.Stats.TLBFlushBroadcasts; v != 1 {
		t.Fatalf("flush broadcasts = %d, want 1", v)
	}
}

// TestMIFDErrorRegisterOnOversubscription launches more threads than the chip
// has contexts: the error register must record the shortfall and the threads
// must still all run to completion (they queue for contexts).
func TestMIFDErrorRegisterOnOversubscription(t *testing.T) {
	cfg := SmallConfig()
	cfg.NumMTTOPs = 2
	cfg.MTTOPContexts = 4 // 8 contexts total
	m := NewMachine(cfg)
	defer m.Shutdown()
	const workers = 20

	kernel := m.RegisterKernel(func(ctx *xthreads.MTTOPContext) {
		args := ctx.Args()
		done := mem.VAddr(ctx.Load64(args + 0))
		ctx.Compute(10)
		ctx.SignalSlot(done, 0)
	})
	_, err := m.RunProgram(func(ctx *xthreads.CPUContext) {
		done := ctx.Malloc(4 * workers)
		args := ctx.Malloc(8)
		ctx.InitConditions(done, 0, workers-1, xthreads.CondIdle)
		ctx.Store64(args+0, uint64(done))
		ctx.CreateMThreads(kernel, args, 0, workers-1)
		ctx.Wait(done, 0, workers-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.MIFD.ErrorRegister() == "" {
		t.Fatal("error register should record the context shortfall")
	}
	if v := m.MIFD.Stats.ThreadsDispatched; v != workers {
		t.Fatalf("dispatched %d, want %d", v, workers)
	}
}

// TestHangDetection confirms the simulated-time budget catches programs that
// never terminate (a waiting CPU with no one to signal it).
func TestHangDetection(t *testing.T) {
	cfg := SmallConfig()
	cfg.MaxSimulatedTime = 2 * sim.Millisecond
	m := NewMachine(cfg)
	defer m.Shutdown()
	_, err := m.RunProgram(func(ctx *xthreads.CPUContext) {
		flag := ctx.Malloc(4)
		ctx.Store32(flag, 0)
		// Nobody will ever set this flag.
		for ctx.Load32(flag) == 0 {
			ctx.Compute(64)
		}
	})
	if err == nil {
		t.Fatal("expected a hang to be reported")
	}
}

// coroutines counts the goroutines parked in a coroutine switch: the exec
// threads' coroutines. It is exact where runtime.NumGoroutine is not, since
// the previous test's runner goroutine may still be exiting when a test
// starts.
func coroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), " [coroutine")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestShutdownLeavesNoGoroutines: every workload thread is a coroutine, and
// none may outlive its machine — neither after a program whose threads all
// return, nor after a hung one whose spinning CPU and MTTOP threads are torn
// down by the budget check and Shutdown.
func TestShutdownLeavesNoGoroutines(t *testing.T) {
	const workers = 8
	before := coroutines()
	run := func(hang bool) error {
		cfg := SmallConfig()
		cfg.MaxSimulatedTime = 200 * sim.Microsecond
		m := NewMachine(cfg)
		defer m.Shutdown()
		kernel := m.RegisterKernel(func(ctx *xthreads.MTTOPContext) {
			flag := mem.VAddr(ctx.Load64(ctx.Args()))
			for hang && ctx.Load32(flag) == 0 {
				ctx.Compute(16)
			}
			ctx.SignalSlot(mem.VAddr(ctx.Load64(ctx.Args()+8)), 0)
		})
		_, err := m.RunProgram(func(ctx *xthreads.CPUContext) {
			flag := ctx.Malloc(4)
			done := ctx.Malloc(4 * workers)
			args := ctx.Malloc(16)
			ctx.Store32(flag, 0)
			for i := 0; i < workers; i++ {
				ctx.Store32(done+mem.VAddr(4*i), xthreads.CondIdle)
			}
			ctx.Store64(args, uint64(flag))
			ctx.Store64(args+8, uint64(done))
			ctx.CreateMThreads(kernel, args, 0, workers-1)
			ctx.Wait(done, 0, workers-1)
		})
		return err
	}
	if err := run(false); err != nil {
		t.Fatal(err)
	}
	if n := coroutines(); n != before {
		t.Fatalf("%d coroutines after a finished program, want %d", n, before)
	}
	if err := run(true); err == nil {
		t.Fatal("spinning program did not exceed its budget")
	}
	if n := coroutines(); n != before {
		t.Fatalf("%d coroutines after a hung program's shutdown, want %d", n, before)
	}
}

// TestWarmArenaBuildAllocations bounds the heap objects of a warm
// arena-backed ccsvm-base build plus Shutdown, the per-run set-up cost of a
// Runner worker. Counters live in their components and MTTOP contexts and
// TLB entries are built on first use, so none of them allocates here.
func TestWarmArenaBuildAllocations(t *testing.T) {
	cfg := DefaultConfig().InArena(simarena.New())
	const limit = 400
	if got := testing.AllocsPerRun(10, func() { NewMachine(cfg).Shutdown() }); got > limit {
		t.Fatalf("warm ccsvm-base build allocates %.0f objects, want <= %d", got, limit)
	}
}

package opencl_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"ccsvm/internal/apu"
	"ccsvm/internal/mem"
	"ccsvm/internal/opencl"
	"ccsvm/internal/sim"
	"ccsvm/internal/simarena"
)

// testOverheads returns small, distinct driver constants so each overhead
// category's contribution is recognizable in the breakdown counters.
func testOverheads() apu.OpenCLOverheads {
	return apu.OpenCLOverheads{
		PlatformInit:   10 * sim.Microsecond,
		ProgramBuild:   20 * sim.Microsecond,
		BufferCreate:   1 * sim.Microsecond,
		MapBuffer:      2 * sim.Microsecond,
		UnmapBuffer:    3 * sim.Microsecond,
		SetKernelArg:   100 * sim.Nanosecond,
		KernelLaunch:   5 * sim.Microsecond,
		FinishOverhead: 4 * sim.Microsecond,
	}
}

func newAPU(t *testing.T) *apu.Machine {
	t.Helper()
	cfg := apu.DefaultConfig()
	cfg.OpenCL = testOverheads()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	m := apu.NewMachine(cfg)
	t.Cleanup(m.Shutdown)
	return m
}

// TestSessionRunsKernelAndBreaksDownOverheads runs the paper's Figure 3
// program shape — init, build, buffer, map/write/unmap, launch, finish — and
// checks (a) the kernel's functional effect, and (b) that the ps-counter
// overhead breakdown attributes exactly the charged driver constants to the
// right categories, with the machine's Metrics() agreeing with the counters.
func TestSessionRunsKernelAndBreaksDownOverheads(t *testing.T) {
	m := newAPU(t)
	defer m.Shutdown()
	s := opencl.NewSession(m)
	over := m.Config.OpenCL
	const n = 64

	kid := s.CreateKernel(func(c *opencl.WorkItemContext) {
		i := c.GlobalID()
		buf := c.ArgPtr(0)
		v := c.Load32(buf + mem.VAddr(4*i))
		c.Store32(buf+mem.VAddr(4*i), v*2)
	})

	var buf opencl.Buffer
	_, err := m.RunProgram(func(ctx *apu.HostContext) {
		s.InitPlatform(ctx)
		s.BuildProgram(ctx)
		// Re-initializing is free: the one-time costs are charged once.
		s.InitPlatform(ctx)
		s.BuildProgram(ctx)

		buf = s.CreateBuffer(ctx, 4*n)
		p := s.EnqueueMapBuffer(ctx, buf)
		for i := 0; i < n; i++ {
			ctx.Store32(p+mem.VAddr(4*i), uint32(i))
		}
		s.EnqueueUnmapBuffer(ctx, buf)

		s.EnqueueNDRangeKernel(ctx, kid, n, uint64(buf.Base))
		s.Finish(ctx)

		res := s.EnqueueMapBuffer(ctx, buf)
		for i := 0; i < n; i++ {
			if got := ctx.Load32(res + mem.VAddr(4*i)); got != uint32(2*i) {
				t.Errorf("element %d = %d, want %d", i, got, 2*i)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Outstanding() != 0 {
		t.Fatalf("%d work-items outstanding after Finish", s.Outstanding())
	}

	ocl := m.OpenCL
	// One-time init: platform + JIT, charged exactly once despite the
	// repeated calls.
	if got, want := ocl.InitPs, uint64(over.PlatformInit+over.ProgramBuild); got != want {
		t.Errorf("init_ps = %d, want %d", got, want)
	}
	// Staging: one create + two maps + one unmap.
	wantStaging := uint64(over.BufferCreate + 2*over.MapBuffer + over.UnmapBuffer)
	if got := ocl.StagingPs; got != wantStaging {
		t.Errorf("staging_ps = %d, want %d", got, wantStaging)
	}
	// Launch+sync: one arg, one launch, Finish overhead plus its polling.
	minLaunch := uint64(over.SetKernelArg + over.KernelLaunch + over.FinishOverhead)
	if got := ocl.LaunchPs; got < minLaunch {
		t.Errorf("launch_ps = %d, want >= %d", got, minLaunch)
	}

	// The per-run metrics must be exactly those counters in microseconds
	// (the contract ARCHITECTURE.md documents for sweep sinks).
	metrics := m.Metrics()
	for key, ps := range map[string]uint64{
		"opencl.init_us":    ocl.InitPs,
		"opencl.staging_us": ocl.StagingPs,
		"opencl.launch_us":  ocl.LaunchPs,
	} {
		want := float64(ps) / 1e6
		if got := metrics[key]; got != want {
			t.Errorf("metrics[%q] = %v, want counter/1e6 = %v", key, got, want)
		}
	}
	if got := metrics["opencl.kernel_launches"]; got != 1 {
		t.Errorf("kernel_launches metric = %v, want 1", got)
	}
	if got := metrics["opencl.work_items"]; got != n {
		t.Errorf("work_items metric = %v, want %d", got, n)
	}
	if got := metrics["opencl.buffer_maps"]; got != 2 {
		t.Errorf("buffer_maps metric = %v, want 2", got)
	}
}

// TestWorkItemsSpreadAcrossUnits launches more work-items than one SIMD
// unit's contexts so the round-robin dispatcher must use several units, and
// every work-item still runs exactly once (each increments its own slot).
func TestWorkItemsSpreadAcrossUnits(t *testing.T) {
	cfg := apu.DefaultConfig()
	cfg.OpenCL = testOverheads()
	cfg.GPUContextsPerUnit = 4 // tiny: forces spreading + queueing
	m := apu.NewMachine(cfg)
	defer m.Shutdown()
	s := opencl.NewSession(m)
	const n = 40

	kid := s.CreateKernel(func(c *opencl.WorkItemContext) {
		c.AtomicAdd32(c.ArgPtr(0)+mem.VAddr(4*c.GlobalID()), 1)
	})
	var buf opencl.Buffer
	_, err := m.RunProgram(func(ctx *apu.HostContext) {
		s.InitPlatform(ctx)
		s.BuildProgram(ctx)
		buf = s.CreateBuffer(ctx, 4*n)
		s.EnqueueNDRangeKernel(ctx, kid, n, uint64(buf.Base))
		s.Finish(ctx)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got := m.MemReadUint32(buf.Base + mem.VAddr(4*i)); got != 1 {
			t.Fatalf("work-item %d ran %d times, want exactly once", i, got)
		}
	}
	// More than one SIMD unit must have executed instructions.
	unitsUsed := 0
	for _, u := range m.GPUUnits {
		if u.Stats.Instructions > 0 {
			unitsUsed++
		}
	}
	if unitsUsed < 2 {
		t.Fatalf("only %d SIMD unit(s) used for %d work-items with 4 contexts/unit", unitsUsed, n)
	}
}

// TestLaunchBeforeInitPanics pins the API misuse failure mode.
func TestLaunchBeforeInitPanics(t *testing.T) {
	m := newAPU(t)
	defer m.Shutdown()
	s := opencl.NewSession(m)
	kid := s.CreateKernel(func(*opencl.WorkItemContext) {})
	_, err := m.RunProgram(func(ctx *apu.HostContext) {
		defer func() {
			if recover() == nil {
				t.Error("EnqueueNDRangeKernel before InitPlatform did not panic")
			}
		}()
		s.EnqueueNDRangeKernel(ctx, kid, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWarmWorkItemAllocatesNothing: on warm machines, a work-item an
// NDRange starts allocates nothing. Each run builds its machine from one
// arena, which carries the threads, their WorkItemContexts, their
// coroutines and the GPU units' hardware contexts from machine to machine;
// a work-item's name is formatted only when read, and the session queues
// one entry per launch. So a per-item object that comes back adds one
// object per work-item to the difference between runs of 16 and 112
// work-items. The difference is rounded to whole objects per work-item: a
// run's count also moves by a few objects with the garbage collector.
func TestWarmWorkItemAllocatesNothing(t *testing.T) {
	arena := simarena.New()
	defer arena.StopCoroutines()
	cfg := apu.DefaultConfig().InArena(arena)
	cfg.OpenCL = testOverheads()
	run := func(items int) func() {
		return func() {
			m := apu.NewMachine(cfg)
			defer m.Shutdown()
			s := opencl.NewSession(m)
			k := s.CreateKernel(func(c *opencl.WorkItemContext) { c.Compute(1) })
			if _, err := m.RunProgram(func(ctx *apu.HostContext) {
				s.InitPlatform(ctx)
				s.EnqueueNDRangeKernel(ctx, k, items)
				s.Finish(ctx)
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for range 2 {
		run(112)()
	}
	few, many := testing.AllocsPerRun(20, run(16)), testing.AllocsPerRun(20, run(112))
	if raceEnabled {
		t.Skipf("race instrumentation moves the counts (%.0f with 16 work-items, %.0f with 112)", few, many)
	}
	if perItem := (many - few) / 96; math.Round(perItem) != 0 {
		t.Fatalf("a work-item allocates %.2f objects (16 items: %.0f, 112: %.0f), want 0", perItem, few, many)
	}
}

// TestFailedWorkItemIsNamed: a work-item's panic fails the run with a
// message that names the work-item by its kernel and global ID.
func TestFailedWorkItemIsNamed(t *testing.T) {
	m := newAPU(t)
	s := opencl.NewSession(m)
	s.CreateKernel(func(*opencl.WorkItemContext) {})
	k := s.CreateKernel(func(c *opencl.WorkItemContext) {
		c.Compute(1)
		if c.GlobalID() == 3 {
			panic("boom")
		}
	})
	defer func() {
		if r := recover(); !strings.Contains(fmt.Sprint(r), `"cl-k1-wi3" failed: boom`) {
			t.Fatalf("run panicked with %v, want the failure of work-item cl-k1-wi3", r)
		}
	}()
	_, err := m.RunProgram(func(ctx *apu.HostContext) {
		s.InitPlatform(ctx)
		s.EnqueueNDRangeKernel(ctx, k, 8)
		s.Finish(ctx)
	})
	t.Fatalf("run with a failed work-item returned %v instead of panicking", err)
}

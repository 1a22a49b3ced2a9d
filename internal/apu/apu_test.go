package apu

// The tests live inside the package so they can build PrivateHierarchy rigs
// around the unexported snoop filter directly, without a whole Machine.

import (
	"errors"
	"testing"

	"ccsvm/internal/cache"
	"ccsvm/internal/dram"
	"ccsvm/internal/exec"
	"ccsvm/internal/gpumem"
	"ccsvm/internal/mem"
	"ccsvm/internal/sim"
)

// hierRig is a pair of private hierarchies sharing a snoop filter and a DRAM
// controller, like the APU machine wires its CPU cores.
type hierRig struct {
	engine *sim.Engine
	dram   *dram.Controller
	hiers  []*PrivateHierarchy
}

// newHierRig builds n hierarchies with deliberately tiny caches (2-set
// direct-mapped L1, 4-line L2) so a handful of lines already evicts.
func newHierRig(t *testing.T, n int) *hierRig {
	t.Helper()
	r := &hierRig{
		engine: sim.NewEngine(),
	}
	r.dram = dram.NewController(r.engine, dram.DefaultAPUConfig())
	filter := newSnoopFilter(make(map[mem.LineAddr]uint64))
	for i := 0; i < n; i++ {
		name := "cpu" + string(rune('0'+i))
		cfg := HierarchyConfig{
			L1:    cache.Config{SizeBytes: 2 * mem.LineSize, Assoc: 1, Name: name + ".l1"},
			L2:    cache.Config{SizeBytes: 4 * mem.LineSize, Assoc: 2, Name: name + ".l2"},
			L1Hit: 1 * sim.Nanosecond,
			L2Hit: 3 * sim.Nanosecond,
		}
		l1, l2 := cache.NewArray(cfg.L1), cache.NewArray(cfg.L2)
		r.hiers = append(r.hiers, NewPrivateHierarchy(r.engine, cfg, l1, l2, r.dram, filter))
	}
	return r
}

// access performs one access on hierarchy h and runs the engine to
// completion, returning the simulated latency the access observed.
func (r *hierRig) access(t *testing.T, h int, typ mem.AccessType, addr mem.PAddr) sim.Duration {
	t.Helper()
	start := r.engine.Now()
	done := false
	var end sim.Time
	r.hiers[h].Access(mem.Request{Type: typ, Addr: addr, Size: 8}, func() {
		done = true
		end = r.engine.Now()
	})
	r.engine.Run()
	if !done {
		t.Fatal("access never completed")
	}
	return end.Sub(start)
}

// line returns an address on the i-th cache line of a convenient region.
func line(i int) mem.PAddr { return mem.PAddr(0x1_0000 + i*mem.LineSize) }

func TestPrivateHierarchyHitMissLatencies(t *testing.T) {
	r := newHierRig(t, 1)
	dramLat := r.dram.Config().Latency

	// Cold access: DRAM miss, latency at least the DRAM access time.
	if lat := r.access(t, 0, mem.Read, line(0)); lat < dramLat {
		t.Fatalf("cold miss took %v, want >= DRAM latency %v", lat, dramLat)
	}
	if got := r.hiers[0].Stats.Misses; got != 1 {
		t.Fatalf("misses = %d, want 1", got)
	}

	// Same line again: L1 hit at L1 latency, no new miss.
	if lat := r.access(t, 0, mem.Read, line(0)+8); lat != 1*sim.Nanosecond {
		t.Fatalf("L1 hit took %v, want 1ns", lat)
	}
	if got := r.hiers[0].Stats.L1Hits; got != 1 {
		t.Fatalf("l1_hits = %d, want 1", got)
	}

	// line(2) maps to the same L1 set (2-line direct-mapped L1) and evicts
	// line(0) from the L1; both stay resident in the 4-line L2.
	r.access(t, 0, mem.Read, line(2))
	if lat := r.access(t, 0, mem.Read, line(0)); lat != 4*sim.Nanosecond {
		t.Fatalf("L2 hit took %v, want L1+L2 = 4ns", lat)
	}
	if got := r.hiers[0].Stats.L2Hits; got != 1 {
		t.Fatalf("l2_hits = %d, want 1", got)
	}
	if got := r.hiers[0].Stats.Misses; got != 2 {
		t.Fatalf("misses = %d after L2 hit, want 2 (no new DRAM access)", got)
	}
}

// TestPrivateHierarchyWritebackOnL2Eviction: dirty lines evicted from the L2
// are written back to DRAM and counted.
func TestPrivateHierarchyWritebackOnL2Eviction(t *testing.T) {
	r := newHierRig(t, 1)
	// Dirty one line, then stream enough same-set lines through the 2-way L2
	// to evict it. L2 has 2 sets; lines 0,2,4,... share set 0.
	r.access(t, 0, mem.Write, line(0))
	for i := 2; i <= 6; i += 2 {
		r.access(t, 0, mem.Read, line(i))
	}
	if got := r.hiers[0].Stats.Writebacks; got == 0 {
		t.Fatal("evicting a dirty L2 line recorded no writeback")
	}
	if got := r.dram.Writes(); got == 0 {
		t.Fatal("writeback did not reach DRAM")
	}
}

// TestSnoopFilterInvalidatesOtherHierarchies: a write by one core removes the
// line from the other cores' private caches, so their next access misses.
func TestSnoopFilterInvalidatesOtherHierarchies(t *testing.T) {
	r := newHierRig(t, 2)
	r.access(t, 0, mem.Read, line(0)) // cpu0 caches the line
	r.access(t, 0, mem.Read, line(0))
	if got := r.hiers[0].Stats.L1Hits; got != 1 {
		t.Fatalf("cpu0 l1_hits = %d, want 1", got)
	}

	r.access(t, 1, mem.Write, line(0)) // cpu1 writes: snoop invalidates cpu0

	missesBefore := r.hiers[0].Stats.Misses
	r.access(t, 0, mem.Read, line(0))
	if got := r.hiers[0].Stats.Misses; got != missesBefore+1 {
		t.Fatalf("cpu0 read after remote write hit a stale copy (misses %d, want %d)",
			got, missesBefore+1)
	}
}

// TestFlushAndInvalidateRange: FlushRange writes dirty lines back (counting
// them) and drops the range; InvalidateRange drops without writing back.
func TestFlushAndInvalidateRange(t *testing.T) {
	r := newHierRig(t, 1)
	r.access(t, 0, mem.Write, line(0))
	r.access(t, 0, mem.Read, line(1))

	base := mem.VAddr(line(0))
	size := uint64(2 * mem.LineSize)
	wbBefore := r.dram.Writes()
	written := r.hiers[0].FlushRange(base, size, nil)
	r.engine.Run()
	if written != 1 {
		t.Fatalf("FlushRange wrote back %d lines, want 1 (only line 0 is dirty)", written)
	}
	if got := r.dram.Writes(); got != wbBefore+1 {
		t.Fatalf("dram.writes = %d, want %d", got, wbBefore+1)
	}
	// Both lines are gone from the hierarchy now.
	missesBefore := r.hiers[0].Stats.Misses
	r.access(t, 0, mem.Read, line(0))
	r.access(t, 0, mem.Read, line(1))
	if got := r.hiers[0].Stats.Misses; got != missesBefore+2 {
		t.Fatalf("flushed lines still cached (misses %d, want %d)", got, missesBefore+2)
	}

	// InvalidateRange: dirty data is dropped, not written back.
	r.access(t, 0, mem.Write, line(3))
	wbBefore = r.dram.Writes()
	r.hiers[0].InvalidateRange(mem.VAddr(line(3)), mem.LineSize)
	if got := r.dram.Writes(); got != wbBefore {
		t.Fatalf("InvalidateRange wrote back (dram.writes %d -> %d)", wbBefore, got)
	}
}

// gpuRig builds a GPU memory path with a tiny write buffer for FIFO tests.
func gpuRig(t *testing.T, bufLines int) (*sim.Engine, *gpumem.Memory) {
	t.Helper()
	engine := sim.NewEngine()
	d := dram.NewController(engine, dram.DefaultAPUConfig())
	rdcache := cache.NewArray(cache.Config{SizeBytes: 4 * mem.LineSize, Assoc: 2, Name: "gpu.rdcache"})
	g := gpumem.New(engine, gpumem.Config{
		ReadCacheBytes:   4 * mem.LineSize,
		ReadCacheAssoc:   2,
		ReadHit:          2 * sim.Nanosecond,
		WriteBufferLines: bufLines,
	}, rdcache, d)
	return engine, g
}

func gpuAccess(t *testing.T, engine *sim.Engine, g *gpumem.Memory, typ mem.AccessType, addr mem.PAddr) {
	t.Helper()
	done := false
	g.Access(mem.Request{Type: typ, Addr: addr, Size: 8}, func() { done = true })
	engine.Run()
	if !done {
		t.Fatal("GPU access never completed")
	}
}

// TestGPUWriteBufferCombinesAndEvictsFIFO pins the write-combining buffer's
// semantics: repeat writes to a buffered line merge for free, and when the
// buffer overflows the OLDEST line leaves first (FIFO by insertion sequence,
// which keeps runs deterministic), so rewriting it costs a fresh slot while
// a younger line still combines.
func TestGPUWriteBufferCombinesAndEvictsFIFO(t *testing.T) {
	engine, g := gpuRig(t, 2)

	gpuAccess(t, engine, g, mem.Write, line(0)) // buffer: {0}
	gpuAccess(t, engine, g, mem.Write, line(1)) // buffer: {0, 1}
	if got := g.Stats.WriteLines; got != 2 {
		t.Fatalf("write_lines = %d, want 2", got)
	}

	gpuAccess(t, engine, g, mem.Write, line(0)) // combines with buffered line 0
	if got := g.Stats.CombinedWrites; got != 1 {
		t.Fatalf("combined_writes = %d, want 1", got)
	}

	gpuAccess(t, engine, g, mem.Write, line(2)) // full: evicts oldest (line 0)
	if got := g.Stats.WriteLines; got != 3 {
		t.Fatalf("write_lines = %d after overflow, want 3", got)
	}

	// Line 0 was the FIFO victim: rewriting it is a fresh line, not a combine.
	gpuAccess(t, engine, g, mem.Write, line(0))
	if got := g.Stats.WriteLines; got != 4 {
		t.Fatalf("write_lines = %d, want 4 (line 0 must have been evicted first)", got)
	}
	if got := g.Stats.CombinedWrites; got != 1 {
		t.Fatalf("combined_writes = %d, want still 1", got)
	}
	// Line 1 is younger and must still be buffered... until line 0's re-insert
	// evicted it (buffer held {1, 2}). Now the buffer holds {2, 0}: line 2
	// still combines.
	gpuAccess(t, engine, g, mem.Write, line(2))
	if got := g.Stats.CombinedWrites; got != 2 {
		t.Fatalf("combined_writes = %d, want 2 (line 2 still buffered)", got)
	}
}

// TestGPUReadCacheHitMiss pins the small GPU read cache and InvalidateAll.
func TestGPUReadCacheHitMiss(t *testing.T) {
	engine, g := gpuRig(t, 2)

	gpuAccess(t, engine, g, mem.Read, line(0))
	if got := g.Stats.ReadMisses; got != 1 {
		t.Fatalf("read_misses = %d, want 1", got)
	}
	gpuAccess(t, engine, g, mem.Read, line(0))
	if got := g.Stats.ReadHits; got != 1 {
		t.Fatalf("read_hits = %d, want 1", got)
	}

	// Between kernels the read cache and write buffer are dropped.
	gpuAccess(t, engine, g, mem.Write, line(1))
	g.InvalidateAll()
	gpuAccess(t, engine, g, mem.Read, line(0))
	if got := g.Stats.ReadMisses; got != 2 {
		t.Fatalf("read_misses = %d after InvalidateAll, want 2", got)
	}
	gpuAccess(t, engine, g, mem.Write, line(1))
	if got := g.Stats.WriteLines; got != 2 {
		t.Fatalf("write_lines = %d, want 2 (buffer dropped by InvalidateAll)", got)
	}
}

// TestMemoryPathAllocatesNothing: once warm, CPU misses to DRAM, snoop
// invalidations and GPU read misses and writes allocate nothing — miss
// carriers are recycled and holder sets are bitmasks.
func TestMemoryPathAllocatesNothing(t *testing.T) {
	r := newHierRig(t, 2)
	engine, g := gpuRig(t, 2)
	done := func() {}
	run := func() {
		for i := 0; i < 8; i++ {
			r.hiers[0].Access(mem.Request{Type: mem.Read, Addr: line(i), Size: 8}, done)
			r.hiers[1].Access(mem.Request{Type: mem.Write, Addr: line(i), Size: 8}, done)
			r.engine.Run()
			g.Access(mem.Request{Type: mem.Read, Addr: line(i), Size: 8}, done)
			g.Access(mem.Request{Type: mem.Write, Addr: line(i), Size: 8}, done)
			engine.Run()
		}
	}
	// Warm up until the engine's calendar buckets, the carrier pools and the
	// holder map have reached their high-water capacity.
	for i := 0; i < 100; i++ {
		run()
	}
	if n := testing.AllocsPerRun(20, run); n != 0 {
		t.Fatalf("memory path allocated %.1f objects per pass, want 0", n)
	}
	if r.hiers[0].Stats.Misses == 0 {
		t.Fatal("rig produced no DRAM misses")
	}
}

// TestValidateCapsNumCPUs: the snoop filter's per-line holder bitmask has
// room for 64 cores.
func TestValidateCapsNumCPUs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumCPUs = 64
	if err := cfg.Validate(); err != nil {
		t.Fatalf("64 CPUs rejected: %v", err)
	}
	cfg.NumCPUs = 65
	if err := cfg.Validate(); err == nil {
		t.Fatal("65 CPUs accepted")
	}
}

// TestZeroDelayLoopEndsRun: an engine event that reschedules itself with no
// delay keeps simulated time from reaching the budget, so the run loop must
// end the run as making no progress, whether the loop starts at launch or
// 20 ns in, while the host thread holds the engine between Compute ops (see
// the core test of the same name).
func TestZeroDelayLoopEndsRun(t *testing.T) {
	for _, start := range []sim.Duration{0, 20 * sim.Nanosecond} {
		m := NewMachine(DefaultConfig())
		ops, opsAtStart, left := 0, -1, 5_000_000
		var loop func()
		loop = func() {
			if opsAtStart < 0 {
				opsAtStart = ops
			}
			if left--; left > 0 {
				m.Engine.Schedule(0, loop)
			}
		}
		m.Engine.Schedule(start, loop)
		_, err := m.RunProgram(func(c *HostContext) {
			for range 100 {
				c.Compute(10)
				ops++
			}
		})
		m.Shutdown()
		if !errors.Is(err, exec.ErrNoProgress) {
			t.Fatalf("loop from %v: run returned %v, want exec.ErrNoProgress", start, err)
		}
		if left == 0 {
			t.Fatalf("loop from %v: the run ended only when the loop stopped itself", start)
		}
		if start > 0 && (opsAtStart == 0 || opsAtStart == 100) {
			t.Fatalf("loop from %v started after %d of the host's 100 ops, want mid-run", start, opsAtStart)
		}
	}
}

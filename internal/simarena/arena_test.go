package simarena

import (
	"runtime"
	"strings"
	"testing"

	"ccsvm/internal/cache"
	"ccsvm/internal/dram"
	"ccsvm/internal/exec"
	"ccsvm/internal/gpumem"
	"ccsvm/internal/mem"
	"ccsvm/internal/sim"
	"ccsvm/internal/vm"
)

func TestNilArenaBuildsFresh(t *testing.T) {
	var a *Arena
	if a.Engine() == nil {
		t.Fatal("nil arena returned no engine")
	}
	if p := a.Physical(1 << 20); p == nil || p.Size() != 1<<20 {
		t.Fatalf("nil arena physical memory = %v, want 1 MiB", p)
	}
	cfg := cache.Config{SizeBytes: 4096, Assoc: 4, Name: "l1"}
	arr := a.Array(cfg)
	if arr == nil || arr.Config() != cfg || arr.Occupancy() != 0 {
		t.Fatalf("nil arena array = %+v, want an empty %+v", arr, cfg)
	}
	if c := a.Checker(); c == nil || !c.Ok() {
		t.Fatal("nil arena returned no clean checker")
	}
	if a.DirTable() == nil {
		t.Fatal("nil arena returned no directory table")
	}
	if p := a.ContextPool(); p == nil || p.Len() != 0 {
		t.Fatal("nil arena returned no empty context pool")
	}
	if m := a.SnoopMap(); m == nil || len(m) != 0 {
		t.Fatal("nil arena returned no empty snoop map")
	}
	if m := a.MMU(vm.TLBConfig{Entries: 4}, nil, nil); m == nil || m.TLB().Occupancy() != 0 {
		t.Fatal("nil arena returned no MMU with an empty TLB")
	}
	if g := a.GPUMemory(a.Engine(), gpumem.DefaultConfig(), arr, nil); g == nil || g.Stats != (gpumem.Stats{}) {
		t.Fatal("nil arena returned no GPU memory path with zero counts")
	}
	// Recycling into a nil arena drops the parts; nothing is kept or counted.
	a.RecycleArray(arr)
	a.RecycleEngine(a.Engine())
	a.RecycleChecker(a.Checker())
	a.RecycleDirTable(a.DirTable())
	a.RecycleContextPool(a.ContextPool())
	a.RecycleSnoopMap(a.SnoopMap())
	a.RecycleMMU(a.MMU(vm.TLBConfig{Entries: 4}, nil, nil))
	a.RecycleGPUMemory(a.GPUMemory(a.Engine(), gpumem.DefaultConfig(), arr, nil))
	if a.TakeCohMsgs() != nil || a.TakeNocMsgs() != nil || a.TakeThreads() != nil {
		t.Fatal("nil arena handed out parked messages or threads")
	}
	if got := a.Stats(); got != (Stats{}) {
		t.Fatalf("nil arena stats = %+v, want zero", got)
	}
}

func TestArrayReuseNeedsEqualGeometry(t *testing.T) {
	a := New()
	cfg := cache.Config{SizeBytes: 4096, Assoc: 4, Name: "cpu0.l1"}
	arr := a.Array(cfg)
	for i := 0; i < 8; i++ {
		l, _, _, ok := arr.Allocate(mem.LineAddr(i * 3))
		if !ok {
			t.Fatal("allocate into an empty array failed")
		}
		l.State = cache.Modified
	}
	a.RecycleArray(arr)

	// Same size, other associativity; other size, same associativity.
	for _, other := range []cache.Config{
		{SizeBytes: 4096, Assoc: 2, Name: "x"},
		{SizeBytes: 8192, Assoc: 4, Name: "y"},
	} {
		if got := a.Array(other); got == arr {
			t.Fatalf("Array(%+v) reused the parked %+v", other, arr.Config())
		}
	}
	got := a.Array(cache.Config{SizeBytes: 4096, Assoc: 4, Name: "mttop3.l1"})
	if got != arr {
		t.Fatal("Array with the parked geometry built a new array")
	}
	if got.Config().Name != "mttop3.l1" || got.Occupancy() != 0 || got.Lookup(3) != nil {
		t.Fatalf("reused array not reset: name %q, occupancy %d", got.Config().Name, got.Occupancy())
	}
	// The parked array was handed out once; the next request builds.
	if again := a.Array(cfg); again == arr {
		t.Fatal("one parked array was handed out twice")
	}

	a.RecycleEngine(a.Engine())
	a.Engine()
	want := Stats{EngineReuses: 1, EngineBuilds: 1, ArrayReuses: 1, ArrayBuilds: 4}
	if s := a.Stats(); s != want {
		t.Fatalf("stats = %+v, want %+v", s, want)
	}
}

func TestCheckerAndTableReuse(t *testing.T) {
	a := New()
	c, tbl := a.Checker(), a.DirTable()
	c.Record(0, 7, cache.Modified)
	c.Record(1, 7, cache.Modified)
	a.RecycleChecker(c)
	a.RecycleDirTable(tbl)

	if got := a.Checker(); got != c {
		t.Fatal("Checker built a new checker with one parked")
	}
	if !c.Ok() || len(c.Holders(7)) != 0 {
		t.Fatalf("reused checker not reset: violations %q, holders %v", c.Violations, c.Holders(7))
	}
	if got := a.DirTable(); got != tbl {
		t.Fatal("DirTable built a new table with one parked")
	}
	// Each parked part was handed out once; the next requests build.
	if a.Checker() == c || a.DirTable() == tbl {
		t.Fatal("one parked part was handed out twice")
	}
	want := Stats{CheckerReuses: 1, CheckerBuilds: 2, TableReuses: 1, TableBuilds: 2}
	if s := a.Stats(); s != want {
		t.Fatalf("stats = %+v, want %+v", s, want)
	}
}

// TestSnoopMapReuseIsCleared: a parked snoop filter map comes back empty, so
// a line the last machine's CPUs held has no holders on the next.
func TestSnoopMapReuseIsCleared(t *testing.T) {
	a := New()
	m := a.SnoopMap()
	m[mem.LineAddr(7)] = 0b101
	a.RecycleSnoopMap(m)
	got := a.SnoopMap()
	if len(got) != 0 {
		t.Fatalf("reused snoop map holds %v, want it empty", got)
	}
	got[mem.LineAddr(7)] = 1
	if len(m) != 1 {
		t.Fatal("SnoopMap built a new map with one parked")
	}
	if s := a.Stats(); s.SnoopMapReuses != 1 || s.SnoopMapBuilds != 1 {
		t.Fatalf("stats = %+v, want one snoop map built and one reused", s)
	}
}

// TestMMUReuseIsReset: a parked MMU comes back with no root, no count and an
// empty TLB sized for the new machine.
func TestMMUReuseIsReset(t *testing.T) {
	a := New()
	m := a.MMU(vm.TLBConfig{Entries: 4}, nil, nil)
	m.SetRoot(0x1000)
	m.TLB().Insert(0x2000, 5, true)
	a.RecycleMMU(m)
	got := a.MMU(vm.TLBConfig{Entries: 8}, nil, nil)
	if got != m {
		t.Fatal("MMU built a new MMU with one parked")
	}
	if got.Root() != 0 || got.Walks() != 0 || got.TLB().Occupancy() != 0 || got.TLB().Hits() != 0 {
		t.Fatalf("reused MMU not reset: root %#x, walks %d, TLB occupancy %d", got.Root(), got.Walks(), got.TLB().Occupancy())
	}
	for i := range 8 {
		got.TLB().Insert(mem.VAddr(i)*mem.PageSize, 1, false)
	}
	if got.TLB().Occupancy() != 8 {
		t.Fatalf("reused TLB holds %d entries, want the new capacity of 8", got.TLB().Occupancy())
	}
	if s := a.Stats(); s.MMUReuses != 1 || s.MMUBuilds != 1 || s.MMUs != 0 {
		t.Fatalf("stats = %+v, want one MMU built, one reused and none parked", s)
	}
}

// TestGPUMemoryReuseIsReset: a parked GPU memory path comes back wired to
// the new engine and DRAM with zero counts and no buffered line, so a write
// to a line buffered before it was parked takes a fresh slot.
func TestGPUMemoryReuseIsReset(t *testing.T) {
	a := New()
	cfg := gpumem.DefaultConfig()
	rd := cache.Config{SizeBytes: cfg.ReadCacheBytes, Assoc: cfg.ReadCacheAssoc, Name: "gpu.rdcache"}
	write := func(g *gpumem.Memory, engine *sim.Engine) {
		done := false
		g.Access(mem.Request{Type: mem.Write, Addr: 0x1000, Size: 8}, func() { done = true })
		engine.Run()
		if !done {
			t.Fatal("GPU write never completed on its machine's engine")
		}
	}
	engine := sim.NewEngine()
	g := a.GPUMemory(engine, cfg, a.Array(rd), dram.NewController(engine, dram.DefaultAPUConfig()))
	write(g, engine)
	a.RecycleGPUMemory(g)
	engine = sim.NewEngine()
	got := a.GPUMemory(engine, cfg, a.Array(rd), dram.NewController(engine, dram.DefaultAPUConfig()))
	if got != g || got.Stats != (gpumem.Stats{}) {
		t.Fatalf("reused GPU memory path: same %v, stats %+v, want the parked one with zero counts", got == g, got.Stats)
	}
	write(got, engine)
	if got.Stats.WriteLines != 1 || got.Stats.CombinedWrites != 0 {
		t.Fatalf("write after reuse: stats %+v, want a fresh line", got.Stats)
	}
	if s := a.Stats(); s.GPUMemReuses != 1 || s.GPUMemBuilds != 1 || s.GPUMems != 0 {
		t.Fatalf("stats = %+v, want one GPU memory path built, one reused and none parked", s)
	}
}

// coroutines counts the goroutines parked in a coroutine switch: the exec
// threads' coroutines.
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

// TestCoroutinesParkUntilStopped: a gate's drained coroutine pool parks in
// the arena, live, for the next gate to draw, until StopCoroutines ends it
// and empties the pool.
func TestCoroutinesParkUntilStopped(t *testing.T) {
	finish := func(g *exec.Gate) {
		t.Helper()
		th := exec.NewThread(g, 0, "t", func(*exec.Context) {})
		th.Start()
		if _, st := th.TryNext(nil); st != exec.NextDone {
			t.Fatalf("thread with no op reported %v, want NextDone", st)
		}
	}
	before := coroutines()
	a := New()
	g := exec.NewGate()
	finish(g)
	cs := g.DrainCoroutines()
	a.RecycleCoroutines(cs)
	if s := a.Stats(); s.Coroutines != 1 || coroutines() != before+1 {
		t.Fatalf("arena parks %d coroutines and %d run, want 1 and 1", s.Coroutines, coroutines()-before)
	}
	next := exec.NewGate()
	next.SeedCoroutines(a.TakeCoroutines())
	finish(next)
	if d := next.DrainCoroutines(); len(d) != 1 || d[0] != cs[0] || coroutines() != before+1 {
		t.Fatal("the next gate did not run its thread on the parked coroutine")
	}
	a.RecycleCoroutines(cs)
	a.StopCoroutines()
	if s := a.Stats(); s.Coroutines != 0 || coroutines() != before {
		t.Fatalf("after StopCoroutines the arena parks %d coroutines and %d run, want none", s.Coroutines, coroutines()-before)
	}
	if cs := a.TakeCoroutines(); cs != nil {
		t.Fatalf("after StopCoroutines the arena hands out %d coroutines, want none", len(cs))
	}
	var none *Arena
	none.StopCoroutines()
}

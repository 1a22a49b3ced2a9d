package simarena

import (
	"testing"

	"ccsvm/internal/cache"
	"ccsvm/internal/mem"
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
	// Recycling into a nil arena drops the parts; nothing is kept or counted.
	a.RecycleArray(arr)
	a.RecycleEngine(a.Engine())
	if a.TakeCohMsgs() != nil || a.TakeNocMsgs() != nil {
		t.Fatal("nil arena handed out parked messages")
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

package cache

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"ccsvm/internal/mem"
)

func testConfig() Config {
	return Config{SizeBytes: 4096, Assoc: 4, Name: "test"} // 16 sets of 4
}

func TestStateHelpers(t *testing.T) {
	stable := []State{Invalid, Shared, Exclusive, Owned, Modified}
	for _, s := range stable {
		if !s.Stable() || s.Transient() {
			t.Fatalf("%v should be stable", s)
		}
	}
	transient := []State{ISD, IMAD, IMA, SMAD, SMA, MIA, OIA, EIA, IIA, ISDI}
	for _, s := range transient {
		if s.Stable() || !s.Transient() {
			t.Fatalf("%v should be transient", s)
		}
		if s.String() == "" {
			t.Fatalf("%v has no name", s)
		}
	}
	if Invalid.CanRead() || !Shared.CanRead() || !Modified.CanRead() {
		t.Fatal("CanRead wrong")
	}
	if Shared.CanWrite() || Owned.CanWrite() || !Exclusive.CanWrite() || !Modified.CanWrite() {
		t.Fatal("CanWrite wrong")
	}
	if !Modified.Dirty() || !Owned.Dirty() || Exclusive.Dirty() || Shared.Dirty() {
		t.Fatal("Dirty wrong")
	}
	if !Modified.IsOwnerState() || !Owned.IsOwnerState() || !Exclusive.IsOwnerState() || Shared.IsOwnerState() {
		t.Fatal("IsOwnerState wrong")
	}
}

func TestConfigGeometry(t *testing.T) {
	cfg := Config{SizeBytes: 64 * 1024, Assoc: 4, Name: "l1"}
	if got := cfg.NumSets(); got != 256 {
		t.Fatalf("64KB 4-way has %d sets, want 256", got)
	}
	bad := Config{SizeBytes: 1000, Assoc: 4, Name: "bad"} // 15 lines do not divide into 4 ways
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid geometry")
		}
	}()
	bad.NumSets()
}

func TestArrayLookupTouchAllocate(t *testing.T) {
	a := NewArray(testConfig())
	addr := mem.LineAddr(0x40)
	if a.Lookup(addr) != nil {
		t.Fatal("empty array lookup should be nil")
	}
	line, _, evicted, ok := a.Allocate(addr)
	if !ok || evicted {
		t.Fatal("first allocation should succeed without eviction")
	}
	line.State = Shared
	if got := a.Touch(addr); got == nil || got.State != Shared {
		t.Fatal("touch after allocate failed")
	}
	if a.Occupancy() != 1 {
		t.Fatalf("occupancy = %d, want 1", a.Occupancy())
	}
	a.Invalidate(addr)
	if a.Lookup(addr) != nil {
		t.Fatal("lookup after invalidate should be nil")
	}
}

func TestArrayDoubleAllocatePanics(t *testing.T) {
	a := NewArray(testConfig())
	l, _, _, _ := a.Allocate(0x40)
	l.State = Shared
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double allocate")
		}
	}()
	a.Allocate(0x40)
}

func TestArrayLRUEviction(t *testing.T) {
	cfg := testConfig()
	a := NewArray(cfg)
	sets := cfg.NumSets()
	// Fill one set (addresses that map to set 0): line addresses 0, sets, 2*sets, ...
	addrs := make([]mem.LineAddr, cfg.Assoc+1)
	for i := range addrs {
		addrs[i] = mem.LineAddr(i * sets)
	}
	for i := 0; i < cfg.Assoc; i++ {
		l, _, evicted, ok := a.Allocate(addrs[i])
		if !ok || evicted {
			t.Fatalf("allocation %d should not evict", i)
		}
		l.State = Shared
	}
	// Touch all but addrs[1], making it LRU.
	for i := 0; i < cfg.Assoc; i++ {
		if i != 1 {
			a.Touch(addrs[i])
		}
	}
	_, victim, evicted, ok := a.Allocate(addrs[cfg.Assoc])
	if !ok || !evicted {
		t.Fatal("allocation into a full set must evict")
	}
	if victim.Addr != addrs[1] {
		t.Fatalf("victim = %v, want LRU line %v", victim.Addr, addrs[1])
	}
}

func TestArrayAllocateSkipsTransientLines(t *testing.T) {
	cfg := testConfig()
	a := NewArray(cfg)
	sets := cfg.NumSets()
	for i := 0; i < cfg.Assoc; i++ {
		l, _, _, _ := a.Allocate(mem.LineAddr(i * sets))
		l.State = IMAD // every way has an outstanding transaction
	}
	_, _, _, ok := a.Allocate(mem.LineAddr(cfg.Assoc * sets))
	if ok {
		t.Fatal("allocation should fail when every way is transient")
	}
	// Make one line stable again; allocation must now succeed and pick it.
	stable := a.Lookup(mem.LineAddr(2 * sets))
	stable.State = Shared
	_, victim, evicted, ok := a.Allocate(mem.LineAddr(cfg.Assoc * sets))
	if !ok || !evicted || victim.Addr != mem.LineAddr(2*sets) {
		t.Fatalf("allocation should evict the only stable line, got victim %v ok=%v", victim.Addr, ok)
	}
}

// Property: the array never holds more lines than its capacity and never
// holds the same address twice, under any access pattern.
func TestArrayCapacityProperty(t *testing.T) {
	cfg := testConfig()
	capacity := cfg.SizeBytes / mem.LineSize
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := NewArray(cfg)
		for i := 0; i < 500; i++ {
			addr := mem.LineAddr(rng.Intn(256))
			if a.Touch(addr) == nil {
				l, _, _, ok := a.Allocate(addr)
				if !ok {
					return false
				}
				l.State = Shared
			}
		}
		if a.Occupancy() > capacity {
			return false
		}
		seen := make(map[mem.LineAddr]int)
		a.ForEach(func(l *Line) { seen[l.Addr]++ })
		for _, n := range seen {
			if n > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: a just-touched line is never the LRU victim.
func TestArrayLRUProperty(t *testing.T) {
	cfg := testConfig()
	sets := cfg.NumSets()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := NewArray(cfg)
		for i := 0; i < cfg.Assoc; i++ {
			l, _, _, _ := a.Allocate(mem.LineAddr(i * sets))
			l.State = Shared
		}
		protect := mem.LineAddr(rng.Intn(cfg.Assoc) * sets)
		a.Touch(protect)
		_, victim, evicted, ok := a.Allocate(mem.LineAddr(cfg.Assoc * sets))
		return ok && evicted && victim.Addr != protect
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// arrayEvent is one observable outcome of an operation on an array: the
// returned line (with its LRU stamp), the victim, and the flags.
type arrayEvent struct {
	op            byte
	addr          mem.LineAddr
	found         bool
	line, victim  Line
	evicted, ok   bool
	occupancyThen int
}

// driveArray applies ops random operations to a and returns every outcome,
// the final occupancy and the ForEach order. Addresses concentrate on a few
// hot sets with more tags than ways, and state edits often leave lines
// transient, so evictions and all-transient sets (Allocate ok=false) occur.
func driveArray(a *Array, rng *rand.Rand, ops int) []arrayEvent {
	sets := a.Config().NumSets()
	states := []State{Shared, Exclusive, Owned, Modified, ISD, IMAD, SMAD, MIA}
	var log []arrayEvent
	for i := 0; i < ops; i++ {
		set := rng.Intn(sets)
		if rng.Intn(4) != 0 {
			set = rng.Intn(2)
		}
		addr := mem.LineAddr(set + sets*rng.Intn(2*a.Config().Assoc))
		ev := arrayEvent{addr: addr}
		switch r := rng.Intn(10); {
		case r < 4:
			ev.op = 'a'
			if a.Lookup(addr) != nil {
				ev.found = true
				break
			}
			l, victim, evicted, ok := a.Allocate(addr)
			ev.victim, ev.evicted, ev.ok = victim, evicted, ok
			if ok {
				ev.line = *l
				l.State = states[rng.Intn(len(states))]
				l.Dirty = rng.Intn(2) == 0
			}
		case r < 6:
			ev.op = 't'
			if l := a.Touch(addr); l != nil {
				ev.found, ev.line = true, *l
			}
		case r < 7:
			ev.op = 'i'
			a.Invalidate(addr)
		case r < 9:
			ev.op = 's'
			if l := a.Lookup(addr); l != nil {
				ev.found, ev.line = true, *l
				l.State = states[rng.Intn(len(states))]
			}
		default:
			// Drop every stable line's valid bit without zeroing it, as
			// gpumem.Memory.InvalidateAll does.
			ev.op = 'f'
			a.ForEach(func(l *Line) {
				if l.State.Stable() {
					l.Valid = false
				}
			})
		}
		ev.occupancyThen = a.Occupancy()
		log = append(log, ev)
	}
	a.ForEach(func(l *Line) { log = append(log, arrayEvent{op: 'e', line: *l}) })
	return log
}

// Property: an array Reset after any history is indistinguishable from
// NewArray of the same geometry — every outcome, LRU stamp, victim,
// occupancy and the ForEach order of a second random sequence match.
func TestArrayResetProperty(t *testing.T) {
	refused := 0
	for _, cfg := range []Config{testConfig(), {SizeBytes: 2048, Assoc: 2, Name: "test2"}} {
		f := func(first, second int64) bool {
			reused := NewArray(cfg)
			driveArray(reused, rand.New(rand.NewSource(first)), 400)
			reused.Reset("renamed")
			fresh := NewArray(Config{SizeBytes: cfg.SizeBytes, Assoc: cfg.Assoc, Name: "renamed"})
			if reused.Config() != fresh.Config() {
				t.Logf("config after reset %+v, want %+v", reused.Config(), fresh.Config())
				return false
			}
			got := driveArray(reused, rand.New(rand.NewSource(second)), 400)
			want := driveArray(fresh, rand.New(rand.NewSource(second)), 400)
			for _, ev := range want {
				if ev.op == 'a' && !ev.found && !ev.ok {
					refused++
				}
			}
			if !slices.Equal(got, want) {
				for i := range min(len(got), len(want)) {
					if got[i] != want[i] {
						t.Logf("event %d: reset array %+v, fresh array %+v", i, got[i], want[i])
						break
					}
				}
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
	}
	if refused == 0 {
		t.Fatal("no Allocate met an all-transient set; the property never covered ok=false")
	}
}

package vm

import (
	"testing"
	"testing/quick"

	"ccsvm/internal/mem"
	"ccsvm/internal/sim"
	"ccsvm/internal/stats"
)

// fakePort completes accesses immediately (zero latency) and counts them.
type fakePort struct {
	accesses int
}

func (p *fakePort) Access(req mem.Request, done func()) {
	p.accesses++
	done()
}

func newTestTable(t *testing.T) (*mem.Physical, *PageTable, *FrameAllocatorStub) {
	t.Helper()
	phys := mem.NewPhysical(64 << 20)
	alloc := &FrameAllocatorStub{next: 16}
	pt := NewPageTable(phys, alloc.Alloc(), alloc.Alloc)
	return phys, pt, alloc
}

// FrameAllocatorStub is a minimal bump allocator for tests.
type FrameAllocatorStub struct{ next mem.FrameNumber }

// Alloc hands out the next frame.
func (a *FrameAllocatorStub) Alloc() mem.FrameNumber {
	f := a.next
	a.next++
	return f
}

func TestPTE(t *testing.T) {
	e := NewPTE(42, true)
	if !e.Present() || !e.Writable() || e.Frame() != 42 {
		t.Fatalf("PTE fields wrong: %v %v %v", e.Present(), e.Writable(), e.Frame())
	}
	ro := NewPTE(7, false)
	if ro.Writable() {
		t.Fatal("read-only PTE claims writable")
	}
	if PTE(0).Present() {
		t.Fatal("zero PTE claims present")
	}
}

func TestPageTableMapLookupUnmap(t *testing.T) {
	_, pt, _ := newTestTable(t)
	va := mem.VAddr(0x1000_0000)
	if _, ok := pt.Lookup(va); ok {
		t.Fatal("unmapped address should not translate")
	}
	pt.Map(va, 100, true)
	pte, ok := pt.Lookup(va)
	if !ok || pte.Frame() != 100 {
		t.Fatalf("lookup after map: ok=%v frame=%v", ok, pte.Frame())
	}
	pa, ok := pt.Translate(va + 0x123)
	if !ok || pa != mem.PAddr(100*mem.PageSize+0x123) {
		t.Fatalf("translate = %#x, ok=%v", uint64(pa), ok)
	}
	if _, ok := pt.Unmap(va); !ok {
		t.Fatal("unmap of mapped page failed")
	}
	if _, ok := pt.Lookup(va); ok {
		t.Fatal("address still translates after unmap")
	}
	if _, ok := pt.Unmap(va); ok {
		t.Fatal("double unmap reported success")
	}
}

func TestPageTableSharesLevel2Tables(t *testing.T) {
	_, pt, alloc := newTestTable(t)
	before := alloc.next
	// Two pages in the same 2 MB region share one level-2 table.
	pt.Map(0x1000_0000, 200, true)
	pt.Map(0x1000_1000, 201, true)
	if got := alloc.next - before; got != 1 {
		t.Fatalf("allocated %d level-2 tables, want 1", got)
	}
	// A page in a different region needs a new table.
	pt.Map(0x1020_0000, 202, true)
	if got := alloc.next - before; got != 2 {
		t.Fatalf("allocated %d level-2 tables, want 2", got)
	}
}

// Property: map/translate round-trips for arbitrary heap addresses and
// frames.
func TestPageTableRoundTripProperty(t *testing.T) {
	_, pt, _ := newTestTable(t)
	f := func(pageRaw uint16, frameRaw uint16) bool {
		va := mem.VAddr(pageRaw) * mem.PageSize
		frame := mem.FrameNumber(frameRaw) + 1000
		pt.Map(va, frame, true)
		pa, ok := pt.Translate(va + 17)
		return ok && pa == frame.Addr()+17
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTLBHitMissLRUAndFlush(t *testing.T) {
	reg := stats.NewRegistry("t")
	tlb := NewTLB(TLBConfig{Entries: 4, Name: "tlb"}, reg)
	if _, _, ok := tlb.Lookup(0x1000); ok {
		t.Fatal("empty TLB hit")
	}
	tlb.Insert(0x1000, 1, true)
	if f, w, ok := tlb.Lookup(0x1000); !ok || f != 1 || !w {
		t.Fatal("TLB lookup after insert failed")
	}
	// Fill beyond capacity; the LRU entry (page 2) should be evicted.
	tlb.Insert(0x2000, 2, true)
	tlb.Insert(0x3000, 3, true)
	tlb.Insert(0x4000, 4, true)
	tlb.Lookup(0x1000)
	tlb.Lookup(0x3000)
	tlb.Lookup(0x4000)
	tlb.Insert(0x5000, 5, true)
	if _, _, ok := tlb.Lookup(0x2000); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, _, ok := tlb.Lookup(0x1000); !ok {
		t.Fatal("recently used entry was evicted")
	}
	tlb.Flush()
	if tlb.Occupancy() != 0 {
		t.Fatal("flush left entries behind")
	}
	if tlb.Hits() == 0 || tlb.Misses() == 0 {
		t.Fatal("hit/miss counters not advancing")
	}
}

func TestMMUTranslateHitMissAndFault(t *testing.T) {
	phys, pt, _ := newTestTable(t)
	port := &fakePort{}
	reg := stats.NewRegistry("t")
	mmu := NewMMU(TLBConfig{Entries: 8, Name: "mmu"}, port, phys, reg)
	mmu.SetRoot(pt.Root())

	va := mem.VAddr(0x1000_0000)
	pt.Map(va, 300, true)

	var gotPA mem.PAddr
	var gotFault *Fault
	mmu.Translate(va+8, false, func(pa mem.PAddr, f *Fault) { gotPA, gotFault = pa, f })
	if gotFault != nil {
		t.Fatalf("unexpected fault: %v", gotFault)
	}
	if gotPA != mem.PAddr(300*mem.PageSize+8) {
		t.Fatalf("translated to %#x", uint64(gotPA))
	}
	if port.accesses != 2 {
		t.Fatalf("page walk used %d memory accesses, want 2", port.accesses)
	}
	// Second access to the same page hits the TLB: no more walks.
	mmu.Translate(va+16, false, func(pa mem.PAddr, f *Fault) { gotPA, gotFault = pa, f })
	if port.accesses != 2 {
		t.Fatalf("TLB hit still walked (%d accesses)", port.accesses)
	}
	// Unmapped address faults and reports the faulting VA and root.
	mmu.Translate(0x2000_0000, true, func(pa mem.PAddr, f *Fault) { gotFault = f })
	if gotFault == nil || gotFault.VA != 0x2000_0000 || !gotFault.Write || gotFault.Root != pt.Root() {
		t.Fatalf("fault not reported correctly: %+v", gotFault)
	}
	if gotFault.Error() == "" {
		t.Fatal("fault has no message")
	}
	if mmu.Walks() != 2 || mmu.Faults() != 1 {
		t.Fatalf("walks=%d faults=%d", mmu.Walks(), mmu.Faults())
	}
}

func TestMMUSetRootFlushesTLB(t *testing.T) {
	phys, pt, alloc := newTestTable(t)
	port := &fakePort{}
	mmu := NewMMU(TLBConfig{Entries: 8, Name: "mmu"}, port, phys, stats.NewRegistry("t"))
	mmu.SetRoot(pt.Root())
	pt.Map(0x1000_0000, 400, true)
	mmu.Translate(0x1000_0000, false, func(mem.PAddr, *Fault) {})
	if mmu.TLB().Occupancy() != 1 {
		t.Fatal("translation not cached")
	}
	// Loading a different process's root flushes; reloading the same one
	// does not.
	other := NewPageTable(phys, alloc.Alloc(), alloc.Alloc)
	mmu.SetRoot(other.Root())
	if mmu.TLB().Occupancy() != 0 {
		t.Fatal("SetRoot with new root did not flush the TLB")
	}
	// Reloading the same root must not flush again.
	mmu.TLB().Insert(0x9000, 9, true)
	mmu.SetRoot(other.Root())
	if mmu.TLB().Occupancy() != 1 {
		t.Fatal("SetRoot with unchanged root flushed the TLB")
	}
}

func TestMMUTranslateBeforeRootPanics(t *testing.T) {
	phys := mem.NewPhysical(1 << 20)
	mmu := NewMMU(TLBConfig{Entries: 4, Name: "m"}, &fakePort{}, phys, stats.NewRegistry("t"))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	mmu.Translate(0x1000, false, func(mem.PAddr, *Fault) {})
}

// enginePort completes accesses one nanosecond later on an engine, so walks
// overlap the way they do behind a real cache.
type enginePort struct{ eng *sim.Engine }

func (p *enginePort) Access(req mem.Request, done func()) { p.eng.Schedule(sim.Nanosecond, done) }

// TestWalkAllocatesNothing: once warm, TLB-miss page walks allocate nothing —
// walk carriers are recycled and a full TLB reuses its victim's entry. Each
// pass issues translations of 16 pages through an 8-entry TLB at once: the 8
// pages the previous pass left cached hit, and the other 8 walk together.
func TestWalkAllocatesNothing(t *testing.T) {
	phys, pt, _ := newTestTable(t)
	eng := sim.NewEngine()
	mmu := NewMMU(TLBConfig{Entries: 8, Name: "mmu"}, &enginePort{eng}, phys, stats.NewRegistry("t"))
	mmu.SetRoot(pt.Root())
	const pages = 16
	for i := 0; i < pages; i++ {
		pt.Map(mem.VAddr(0x1000_0000+i*mem.PageSize), mem.FrameNumber(300+i), true)
	}
	translated := 0
	done := func(pa mem.PAddr, f *Fault) {
		if f != nil {
			t.Fatalf("unexpected fault: %v", f)
		}
		translated++
	}
	pass := func() {
		for i := 0; i < pages; i++ {
			mmu.Translate(mem.VAddr(0x1000_0000+i*mem.PageSize), false, done)
		}
		eng.Run()
	}
	// Warm up until the engine's calendar buckets and the free list have
	// reached their high-water capacity.
	for i := 0; i < 100; i++ {
		pass()
	}
	walks := mmu.Walks()
	if n := testing.AllocsPerRun(20, pass); n != 0 {
		t.Fatalf("page walks allocated %.1f objects per pass, want 0", n)
	}
	if got := mmu.Walks() - walks; got != 21*pages/2 {
		t.Fatalf("%d walks in 21 passes, want %d", got, 21*pages/2)
	}
	if translated != 121*pages {
		t.Fatalf("%d translations completed, want %d", translated, 121*pages)
	}
}

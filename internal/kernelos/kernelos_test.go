package kernelos

import (
	"testing"

	"ccsvm/internal/mem"
	"ccsvm/internal/vm"
)

func newKernel(t *testing.T) *Kernel {
	t.Helper()
	phys := mem.NewPhysical(256 << 20)
	return NewKernel(phys, 16, DefaultCosts())
}

func TestFrameAllocatorAllocFree(t *testing.T) {
	phys := mem.NewPhysical(16 * mem.PageSize)
	a := NewFrameAllocator(phys, 4)
	f1 := a.Alloc()
	f2 := a.Alloc()
	if f1 == f2 {
		t.Fatal("allocator returned the same frame twice")
	}
	if f1 < 4 || f2 < 4 {
		t.Fatal("allocator handed out a reserved frame")
	}
	// A freed frame is reused and comes back zeroed.
	phys.WriteUint64(f1.Addr(), 0xdead)
	a.Free(f1)
	f3 := a.Alloc()
	if f3 != f1 {
		t.Fatalf("free list not reused: got %v want %v", f3, f1)
	}
	if phys.ReadUint64(f3.Addr()) != 0 {
		t.Fatal("reused frame not zeroed")
	}
	if a.Allocated() != 3 {
		t.Fatalf("allocated counter = %d, want 3", a.Allocated())
	}
}

func TestFrameAllocatorExhaustionPanics(t *testing.T) {
	phys := mem.NewPhysical(4 * mem.PageSize)
	a := NewFrameAllocator(phys, 2)
	a.Alloc()
	a.Alloc()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on exhaustion")
		}
	}()
	a.Alloc()
}

func TestProcessHeapAndPageFault(t *testing.T) {
	k := newKernel(t)
	p := k.NewProcess()
	base := p.Sbrk(100)
	if base != HeapBase {
		t.Fatalf("first allocation at %#x, want heap base %#x", uint64(base), uint64(HeapBase))
	}
	second := p.Sbrk(8)
	if second <= base {
		t.Fatal("heap not growing")
	}
	if !p.InHeap(base) || p.InHeap(p.Brk()) {
		t.Fatal("InHeap bounds wrong")
	}
	// A fault inside the heap maps a fresh page.
	pteAddr := k.HandlePageFault(&vm.Fault{VA: base, Write: true, Root: p.Root()})
	if pteAddr == 0 {
		t.Fatal("fault handler returned no PTE address")
	}
	if _, ok := p.Table.Translate(base); !ok {
		t.Fatal("page not mapped after fault")
	}
	if k.Stats.PageFaults != 1 {
		t.Fatalf("page fault counter = %d", k.Stats.PageFaults)
	}
}

func TestPageFaultOutsideHeapPanics(t *testing.T) {
	k := newKernel(t)
	p := k.NewProcess()
	defer func() {
		if recover() == nil {
			t.Fatal("expected segfault panic")
		}
	}()
	k.HandlePageFault(&vm.Fault{VA: 0x10, Write: false, Root: p.Root()})
}

func TestPageFaultUnknownRootPanics(t *testing.T) {
	k := newKernel(t)
	k.NewProcess()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown root")
		}
	}()
	k.HandlePageFault(&vm.Fault{VA: uint64ToVA(uint64(HeapBase)), Root: 0xdead000})
}

func uint64ToVA(v uint64) mem.VAddr { return mem.VAddr(v) }

func TestHeapOverflowPanics(t *testing.T) {
	k := newKernel(t)
	p := k.NewProcess()
	defer func() {
		if recover() == nil {
			t.Fatal("expected heap overflow panic")
		}
	}()
	p.Sbrk(uint64(HeapLimit - HeapBase + mem.PageSize))
}

func TestProcessByRootAndMultipleProcesses(t *testing.T) {
	k := newKernel(t)
	p1 := k.NewProcess()
	p2 := k.NewProcess()
	if p1.PID == p2.PID {
		t.Fatal("duplicate PIDs")
	}
	if p1.Root() == p2.Root() {
		t.Fatal("processes share a page table root")
	}
	got, ok := k.ProcessByRoot(p2.Root())
	if !ok || got != p2 {
		t.Fatal("ProcessByRoot lookup failed")
	}
	if _, ok := k.ProcessByRoot(0x123000); ok {
		t.Fatal("ProcessByRoot found a bogus root")
	}
}

func TestUnmapTriggersShootdown(t *testing.T) {
	k := newKernel(t)
	p := k.NewProcess()
	base := p.Sbrk(mem.PageSize)
	k.HandlePageFault(&vm.Fault{VA: base, Write: true, Root: p.Root()})
	flushed := 0
	k.SetShootdownHook(func() { flushed++ })
	if !k.UnmapPage(p, base) {
		t.Fatal("unmap failed")
	}
	if flushed != 1 {
		t.Fatalf("shootdown hook ran %d times, want 1", flushed)
	}
	if k.UnmapPage(p, base) {
		t.Fatal("second unmap of the same page reported success")
	}
}

func TestPrefaultHeapAndFunctionalTranslate(t *testing.T) {
	k := newKernel(t)
	p := k.NewProcess()
	base := p.Sbrk(3 * mem.PageSize)
	p.PrefaultHeap()
	for off := mem.VAddr(0); off < 3*mem.PageSize; off += mem.PageSize {
		if _, ok := p.Table.Translate(base + off); !ok {
			t.Fatalf("page %#x not mapped after PrefaultHeap", uint64(base+off))
		}
	}
	pa := p.TranslateFunctional(base + 100)
	if pa == 0 {
		t.Fatal("functional translate failed")
	}
	// Functional translation of a not-yet-faulted page maps it on demand.
	more := p.Sbrk(mem.PageSize)
	if pa2 := p.TranslateFunctional(more); pa2 == 0 {
		t.Fatal("functional translate of demand page failed")
	}
}

func TestDefaultCosts(t *testing.T) {
	c := DefaultCosts()
	if c.PageFaultInstrs <= 0 || c.SyscallInstrs <= 0 || c.ShootdownInstrs <= 0 {
		t.Fatal("default costs must be positive")
	}
}

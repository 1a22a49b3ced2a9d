package kernelos

import (
	"fmt"
	"sync"

	"ccsvm/internal/mem"
	"ccsvm/internal/vm"
)

// Virtual address space layout for simulated processes. Only the heap is
// dynamic; the workloads in this repository carry no code or stack segments
// (compute is charged abstractly), so the layout is deliberately small.
const (
	// HeapBase is the first heap virtual address.
	HeapBase mem.VAddr = 0x1000_0000
	// HeapLimit is the first address beyond the heap region.
	HeapLimit mem.VAddr = 0x3800_0000
)

// Process is one simulated process: a page table, a heap, and an ID. All
// threads of a process (CPU and MTTOP) share the page table, which is the
// essence of shared virtual memory.
type Process struct {
	// PID identifies the process.
	PID int
	// Table is the process's two-level page table.
	Table *vm.PageTable

	kernel *Kernel

	// mu guards brk. A workload goroutine extends the heap (Sbrk via
	// xthreads Malloc) in the window between two of its operations, while
	// the engine goroutine may concurrently consult InHeap servicing another
	// core's page fault; the two never touch the same heap region (a fault
	// can only target memory whose address was already published through
	// simulated memory), so the lock affects memory safety, not simulated
	// behaviour.
	mu  sync.Mutex
	brk mem.VAddr
}

// Root returns the CR3 value for this process (the physical address of the
// page-table root), which is what task descriptors carry to MTTOP cores.
func (p *Process) Root() mem.PAddr { return p.Table.Root() }

// Brk returns the current end of the heap.
func (p *Process) Brk() mem.VAddr {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.brk
}

// Sbrk extends the heap by size bytes (rounded up to 8-byte alignment) and
// returns the base of the new region. The pages are demand-paged: they are
// mapped by the page-fault handler on first touch, exactly as in the paper's
// Linux-based evaluation.
func (p *Process) Sbrk(size uint64) mem.VAddr {
	p.mu.Lock()
	defer p.mu.Unlock()
	base := mem.AlignUp(p.brk, 64)
	end := base + mem.VAddr(size)
	if end > HeapLimit {
		panic(fmt.Sprintf("kernelos: heap overflow: brk would reach %#x (limit %#x)", uint64(end), uint64(HeapLimit)))
	}
	p.brk = end
	return base
}

// InHeap reports whether va falls inside the currently allocated heap, which
// the page-fault handler uses to distinguish demand paging from wild
// accesses.
func (p *Process) InHeap(va mem.VAddr) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return va >= HeapBase && va < p.brk
}

// PrefaultHeap eagerly maps every currently allocated heap page. Experiments
// use it when they want to exclude cold page faults from a measurement, the
// way a warmed-up native run would behave.
func (p *Process) PrefaultHeap() {
	for va := HeapBase; va < p.Brk(); va += mem.PageSize {
		if _, ok := p.Table.Lookup(va); !ok {
			p.kernel.mapPage(p, va)
		}
	}
}

// TranslateFunctional translates a heap address without timing, mapping the
// page if needed. The machine's loader uses it to initialize workload inputs
// before simulated time starts.
func (p *Process) TranslateFunctional(va mem.VAddr) mem.PAddr {
	if pa, ok := p.Table.Translate(va); ok {
		return pa
	}
	if !p.InHeap(va) {
		panic(fmt.Sprintf("kernelos: functional access outside the heap: %#x", uint64(va)))
	}
	p.kernel.mapPage(p, va)
	pa, _ := p.Table.Translate(va)
	return pa
}

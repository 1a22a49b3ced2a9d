package kernelos

import (
	"fmt"

	"ccsvm/internal/mem"
	"ccsvm/internal/vm"
)

// Costs bundles the instruction costs the kernel charges for its services.
// They are deliberately explicit so experiments can vary them; the defaults
// are in line with measured Linux fast paths on in-order cores.
type Costs struct {
	// PageFaultInstrs is the trap + handler instruction count for a minor
	// (demand-zero) page fault.
	PageFaultInstrs int64
	// ShootdownInstrs is the cost of initiating a TLB shootdown.
	ShootdownInstrs int64
	// SyscallInstrs is the entry/exit cost of a simple syscall (the MIFD
	// write syscall uses it).
	SyscallInstrs int64
}

// DefaultCosts returns the costs used by the paper-configuration machines.
func DefaultCosts() Costs {
	return Costs{
		PageFaultInstrs: 1200,
		ShootdownInstrs: 400,
		SyscallInstrs:   250,
	}
}

// Kernel is the machine-wide OS state: the frame allocator, the process
// table, and the shootdown hook the machine installs to flush MTTOP TLBs.
type Kernel struct {
	phys   *mem.Physical
	frames *FrameAllocator
	costs  Costs

	processes []*Process
	nextPID   int

	// shootdown is installed by the machine; it flushes every MTTOP TLB (the
	// paper's conservative TLB-coherence policy, Section 3.2.1).
	//
	//ccsvm:stateok // installed by the machine at boot; rebound on restore
	shootdown func()

	Stats Stats
}

// Stats are the kernel's OS-service counters.
type Stats struct {
	// PageFaults counts serviced demand-paging faults; TLBShootdowns counts
	// initiated shootdowns.
	PageFaults, TLBShootdowns uint64
}

// NewKernel boots a kernel over the given physical memory. Frames below
// reservedFrames are left to the "firmware" (and page-table roots are carved
// out of the managed region like any other allocation).
func NewKernel(phys *mem.Physical, reservedFrames mem.FrameNumber, costs Costs) *Kernel {
	return &Kernel{
		phys:    phys,
		frames:  NewFrameAllocator(phys, reservedFrames),
		costs:   costs,
		nextPID: 1,
	}
}

// Costs returns the kernel's configured service costs.
func (k *Kernel) Costs() Costs { return k.costs }

// Frames exposes the frame allocator (the loader and page-table code use it).
func (k *Kernel) Frames() *FrameAllocator { return k.frames }

// SetShootdownHook installs the machine's "flush all MTTOP TLBs" action.
func (k *Kernel) SetShootdownHook(fn func()) { k.shootdown = fn }

// NewProcess creates a process with an empty page table and an empty heap.
func (k *Kernel) NewProcess() *Process {
	root := k.frames.Alloc()
	p := &Process{
		PID:    k.nextPID,
		kernel: k,
		brk:    HeapBase,
	}
	p.Table = vm.NewPageTable(k.phys, root, k.frames.Alloc)
	k.nextPID++
	k.processes = append(k.processes, p)
	return p
}

// ProcessByRoot finds the process whose page table root is the given CR3
// value; page faults arriving from MTTOP cores identify their process this
// way, exactly as the paper's MIFD interrupt carries the CR3.
func (k *Kernel) ProcessByRoot(root mem.PAddr) (*Process, bool) {
	for _, p := range k.processes {
		if p.Root() == root {
			return p, true
		}
	}
	return nil, false
}

// HandlePageFault services a demand-paging fault: it allocates a zeroed
// frame, installs the translation, and returns the physical address of the
// PTE that was written so the faulting CPU core can replay the store through
// its cache (making the update visible to the coherence protocol and to
// hardware walkers). Faults outside any valid region panic: in a simulation
// that is a workload bug, not a condition to model.
func (k *Kernel) HandlePageFault(f *vm.Fault) mem.PAddr {
	proc, ok := k.ProcessByRoot(f.Root)
	if !ok {
		panic(fmt.Sprintf("kernelos: page fault for unknown address space: %v", f))
	}
	if !proc.InHeap(f.VA) {
		panic(fmt.Sprintf("kernelos: segmentation fault: %v (heap is %#x..%#x)", f, uint64(HeapBase), uint64(proc.Brk())))
	}
	k.Stats.PageFaults++
	return k.mapPage(proc, f.VA)
}

// mapPage allocates and maps one page, returning the written PTE's address.
// Faults for the same page race freely on a heterogeneous chip (many MTTOP
// threads touch a fresh page before the first fault completes), so — like a
// real kernel re-checking under the page-table lock — an already-present
// mapping is kept rather than replaced, which would discard stores made
// through the first mapping.
func (k *Kernel) mapPage(p *Process, va mem.VAddr) mem.PAddr {
	if _, ok := p.Table.Lookup(va); ok {
		return vm.L2EntryAddrFor(k.phys, p.Table.Root(), va)
	}
	frame := k.frames.Alloc()
	return p.Table.Map(va, frame, true)
}

// UnmapPage removes a translation and performs the TLB shootdown the paper
// describes: the initiating CPU signals every MTTOP TLB to flush.
func (k *Kernel) UnmapPage(p *Process, va mem.VAddr) bool {
	_, ok := p.Table.Unmap(va)
	if !ok {
		return false
	}
	k.Shootdown()
	return true
}

// Shootdown flushes all MTTOP TLBs through the machine hook.
func (k *Kernel) Shootdown() {
	k.Stats.TLBShootdowns++
	if k.shootdown != nil {
		k.shootdown()
	}
}

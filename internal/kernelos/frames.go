package kernelos

import (
	"fmt"

	"ccsvm/internal/mem"
)

// FrameAllocator hands out physical page frames. It is a simple bump
// allocator with a free list, which is all the simulated workloads need.
type FrameAllocator struct {
	phys  *mem.Physical
	next  mem.FrameNumber
	limit mem.FrameNumber
	free  []mem.FrameNumber

	allocated uint64
}

// NewFrameAllocator manages the frames of phys starting at startFrame
// (earlier frames are reserved for firmware/kernel images, mirroring a real
// boot layout).
func NewFrameAllocator(phys *mem.Physical, startFrame mem.FrameNumber) *FrameAllocator {
	return &FrameAllocator{
		phys:  phys,
		next:  startFrame,
		limit: mem.FrameNumber(phys.Size() / mem.PageSize),
	}
}

// Alloc returns a zeroed frame. It panics when physical memory is exhausted,
// which in a simulation is a configuration error rather than a runtime
// condition to recover from.
func (a *FrameAllocator) Alloc() mem.FrameNumber {
	a.allocated++
	if n := len(a.free); n > 0 {
		f := a.free[n-1]
		a.free = a.free[:n-1]
		a.phys.ZeroFrame(f)
		return f
	}
	if a.next >= a.limit {
		panic(fmt.Sprintf("kernelos: out of physical memory (%d frames)", a.limit))
	}
	f := a.next
	a.next++
	a.phys.ZeroFrame(f)
	return f
}

// Free returns a frame to the allocator.
func (a *FrameAllocator) Free(f mem.FrameNumber) {
	a.free = append(a.free, f)
}

// Allocated reports how many frames have been handed out (net of frees not
// tracked; used by tests and memory-footprint stats).
func (a *FrameAllocator) Allocated() uint64 { return a.allocated }

package xthreads

import (
	"ccsvm/internal/exec"
	"ccsvm/internal/mem"
	"ccsvm/internal/sim"
)

// CPUContext is the API available to CPU-side xthreads code. It embeds the
// low-level exec.Context (loads, stores, atomics, compute) and adds the
// xthreads library calls of Table 1 plus libc-style allocation.
type CPUContext struct {
	*exec.Context
	rt *Runtime
}

// Runtime exposes the runtime, mainly for tests.
func (c *CPUContext) Runtime() *Runtime { return c.rt }

// Now reports the current simulated time; workloads bracket their measured
// regions with it.
func (c *CPUContext) Now() sim.Time { return c.rt.Now() }

// Malloc allocates size bytes on the process heap and returns its virtual
// address. The allocation is demand-paged: pages fault in on first touch.
func (c *CPUContext) Malloc(size uint64) mem.VAddr {
	c.Compute(mallocInstrs)
	return c.rt.proc.Sbrk(size)
}

// Free releases an allocation. The simple heap never reuses memory; the call
// charges the instructions a real allocator's fast path would.
func (c *CPUContext) Free(mem.VAddr) {
	c.Compute(freeInstrs)
}

// CreateMThreads spawns MTTOP threads firstTID..lastTID, each running the
// registered kernel with the given argument pointer — the xthreads
// create_mthread call. It returns once the write syscall to the MIFD driver
// has been performed; completion of the threads is observed through memory
// (Wait, Signal, CPUMTTOPBarrier), as in the paper.
func (c *CPUContext) CreateMThreads(kernelID int, args mem.VAddr, firstTID, lastTID int) {
	c.Compute(launchInstrs)
	c.Syscall(SysLaunchMTTOPTask, uint64(kernelID), uint64(args), uint64(firstTID), uint64(lastTID))
}

// Wait spins until every condition variable in cond[firstTID..lastTID]
// reaches Ready (the CPU-side wait of Table 1). Polling is separated by a
// short pause, like the PAUSE instruction in an x86 spin loop.
func (c *CPUContext) Wait(cond mem.VAddr, firstTID, lastTID int) {
	for tid := firstTID; tid <= lastTID; tid++ {
		c.Poll32(cond+mem.VAddr(4*(tid-firstTID)), exec.UntilEqual, CondReady, pollPauseInstrs)
	}
}

// Signal sets every condition variable in cond[firstTID..lastTID] to Ready so
// waiting MTTOP threads can proceed.
func (c *CPUContext) Signal(cond mem.VAddr, firstTID, lastTID int) {
	for tid := firstTID; tid <= lastTID; tid++ {
		c.Store32(cond+mem.VAddr(4*(tid-firstTID)), CondReady)
	}
}

// InitConditions resets a condition array to a known state before launching a
// task.
func (c *CPUContext) InitConditions(cond mem.VAddr, firstTID, lastTID int, value uint32) {
	for tid := firstTID; tid <= lastTID; tid++ {
		c.Store32(cond+mem.VAddr(4*(tid-firstTID)), value)
	}
}

// CPUMTTOPBarrier is the CPU half of the global barrier of Table 1: the CPU
// waits for every MTTOP thread to write its barrier slot, resets the slots,
// and flips the sense so the MTTOP threads can leave the barrier.
func (c *CPUContext) CPUMTTOPBarrier(barrier mem.VAddr, firstTID, lastTID int, sense mem.VAddr) {
	for tid := firstTID; tid <= lastTID; tid++ {
		c.Poll32(barrier+mem.VAddr(4*(tid-firstTID)), exec.UntilNotEqual, 0, pollPauseInstrs)
	}
	for tid := firstTID; tid <= lastTID; tid++ {
		c.Store32(barrier+mem.VAddr(4*(tid-firstTID)), 0)
	}
	c.Store32(sense, 1-c.Load32(sense))
}

// ServeMallocs runs the CPU side of mttop_malloc: it scans the request flags
// of threads firstTID..lastTID, services any pending allocation, and returns
// when stop reports true (typically "all worker threads have signalled
// completion"). This is the wait-for-malloc-requests use of the CPU wait call
// described in Table 1.
func (c *CPUContext) ServeMallocs(area MallocArea, firstTID, lastTID int, stop func(c *CPUContext) bool) {
	for {
		served := 0
		for tid := firstTID; tid <= lastTID; tid++ {
			if c.Load32(area.flagAddr(tid)) != mallocFlagRequested {
				continue
			}
			size := c.Load64(area.sizeAddr(tid))
			ptr := c.Malloc(size)
			c.Store64(area.resultAddr(tid), uint64(ptr))
			c.Store32(area.flagAddr(tid), mallocFlagServed)
			served++
		}
		if stop(c) {
			return
		}
		if served == 0 {
			c.Compute(pollPauseInstrs)
		}
	}
}

// AllocMallocArea carves a MallocArea for threads firstTID..lastTID out of
// the heap and initializes its flags.
func (c *CPUContext) AllocMallocArea(firstTID, lastTID int) MallocArea {
	n := uint64(lastTID - firstTID + 1)
	area := MallocArea{
		Flags:    c.Malloc(4 * n),
		Sizes:    c.Malloc(8 * n),
		Results:  c.Malloc(8 * n),
		FirstTID: firstTID,
	}
	for tid := firstTID; tid <= lastTID; tid++ {
		c.Store32(area.flagAddr(tid), mallocFlagIdle)
	}
	return area
}

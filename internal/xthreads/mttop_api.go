package xthreads

import (
	"ccsvm/internal/exec"
	"ccsvm/internal/mem"
)

// MTTOPContext is the API available to MTTOP kernel code: the low-level
// loads/stores/atomics plus the MTTOP half of the xthreads synchronization
// calls of Table 1.
type MTTOPContext struct {
	*exec.Context
	rt     *Runtime
	tid    int
	args   mem.VAddr
	kernel KernelFunc
}

// TID reports the thread's xthreads thread ID (global across the task).
func (c *MTTOPContext) TID() int { return c.tid }

// Args returns the argument pointer the CPU passed to CreateMThreads.
func (c *MTTOPContext) Args() mem.VAddr { return c.args }

// SignalSlot sets this thread's element of a condition array (indexed from
// firstTID) to Ready — the MTTOP-side signal of Table 1.
func (c *MTTOPContext) SignalSlot(cond mem.VAddr, firstTID int) {
	c.Store32(cond+mem.VAddr(4*(c.tid-firstTID)), CondReady)
}

// Signal sets an arbitrary condition variable to Ready.
func (c *MTTOPContext) Signal(cond mem.VAddr) {
	c.Store32(cond, CondReady)
}

// Wait marks the condition as WaitingOnCPU and spins until the CPU sets it to
// Ready — the MTTOP-side wait of Table 1.
func (c *MTTOPContext) Wait(cond mem.VAddr) {
	c.Store32(cond, CondWaitingOnCPU)
	c.Poll32(cond, exec.UntilEqual, CondReady, pollPauseInstrs)
}

// Barrier is the MTTOP half of the CPU–MTTOP global barrier: write our
// barrier slot, then wait for the CPU to flip the sense.
func (c *MTTOPContext) Barrier(barrier mem.VAddr, firstTID int, sense mem.VAddr) {
	old := c.Load32(sense)
	c.Store32(barrier+mem.VAddr(4*(c.tid-firstTID)), 1)
	c.Poll32(sense, exec.UntilNotEqual, old, pollPauseInstrs)
}

// MTTOPMalloc requests a dynamic allocation from the serving CPU thread
// through the shared MallocArea and blocks until the pointer is returned —
// the paper's mttop_malloc (Section 5.3.2).
func (c *MTTOPContext) MTTOPMalloc(area MallocArea, size uint64) mem.VAddr {
	c.Store64(area.sizeAddr(c.tid), size)
	c.Store32(area.flagAddr(c.tid), mallocFlagRequested)
	c.Poll32(area.flagAddr(c.tid), exec.UntilEqual, mallocFlagServed, pollPauseInstrs)
	ptr := mem.VAddr(c.Load64(area.resultAddr(c.tid)))
	c.Store32(area.flagAddr(c.tid), mallocFlagIdle)
	return ptr
}

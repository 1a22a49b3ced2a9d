package xthreads

import (
	"fmt"

	"ccsvm/internal/exec"
	"ccsvm/internal/kernelos"
	"ccsvm/internal/mem"
	"ccsvm/internal/sim"
)

// Syscall numbers understood by the CCSVM machine's kernel.
const (
	// SysLaunchMTTOPTask is the write syscall to the MIFD driver:
	// args = {kernelID, argsPtr, firstTID, lastTID}.
	SysLaunchMTTOPTask = 1
)

// Condition variable states, as in Table 1 of the paper.
const (
	CondIdle            uint32 = 0
	CondReady           uint32 = 1
	CondWaitingOnCPU    uint32 = 2
	CondWaitingOnMTTOP  uint32 = 3
	mallocFlagIdle      uint32 = 0
	mallocFlagRequested uint32 = 1
	mallocFlagServed    uint32 = 2
)

// Instruction charges for the library's own work. They model the handful of
// user-level instructions each call executes beyond its memory accesses.
const (
	mallocInstrs    = 80
	freeInstrs      = 20
	launchInstrs    = 40
	pollPauseInstrs = 64
)

// KernelFunc is an MTTOP kernel: the function executed by every thread of a
// task, analogous to the _MTTOP_ functions in the paper's Figure 4.
type KernelFunc func(ctx *MTTOPContext)

// MainFunc is the CPU-side entry point of an xthreads program.
type MainFunc func(ctx *CPUContext)

// Runtime is the per-machine xthreads library state: the process whose
// address space all threads share and the kernel table (our stand-in for
// task program counters). The machine's gate owns the threads.
type Runtime struct {
	proc    *kernelos.Process
	clockFn func() sim.Time
	gate    *exec.Gate
	kernels []KernelFunc
	// prefixes holds each kernel's thread-name prefix, which a thread's
	// name completes with its tid (see exec.NewNumberedThread).
	prefixes []string
	nextID   int
}

// NewRuntime creates the runtime for one process. now exposes the machine's
// simulated clock to workloads (for measurement windows); gate is the
// machine's cooperative thread scheduler, which every thread the runtime
// creates runs under.
func NewRuntime(proc *kernelos.Process, now func() sim.Time, gate *exec.Gate) *Runtime {
	return &Runtime{proc: proc, clockFn: now, gate: gate}
}

// Process returns the process whose address space the program uses.
func (r *Runtime) Process() *kernelos.Process { return r.proc }

// RegisterKernel adds a kernel to the table and returns its ID, the value the
// task descriptor carries in place of a program counter.
func (r *Runtime) RegisterKernel(k KernelFunc) int {
	id := len(r.kernels)
	r.kernels = append(r.kernels, k)
	r.prefixes = append(r.prefixes, fmt.Sprintf("mttop-k%d-t", id))
	return id
}

// Kernel returns a registered kernel.
func (r *Runtime) Kernel(id int) KernelFunc {
	if id < 0 || id >= len(r.kernels) {
		panic(fmt.Sprintf("xthreads: unknown kernel id %d", id))
	}
	return r.kernels[id]
}

// NewMTTOPThread materializes the software thread for one (kernel, tid) pair;
// the machine installs this as the MIFD's thread factory. The thread's
// MTTOPContext is its record (see exec.RecordOf), refilled here for the new
// task.
func (r *Runtime) NewMTTOPThread(kernelID, tid int, args mem.VAddr) *exec.Thread {
	k := r.Kernel(kernelID)
	t := exec.NewNumberedThread(r.gate, tid, r.prefixes[kernelID], runMTTOP)
	*exec.RecordOf[MTTOPContext](t) = MTTOPContext{rt: r, tid: tid, args: args, kernel: k}
	return t
}

// runMTTOP is every MTTOP thread's function: it runs the kernel the
// thread's record names.
func runMTTOP(ec *exec.Context) {
	c := ec.Record().(*MTTOPContext)
	c.Context = ec
	c.kernel(c)
}

// NewCPUThread wraps a CPU-side function (the program's main, or an
// additional pthread-style CPU thread) as a software thread.
func (r *Runtime) NewCPUThread(name string, fn MainFunc) *exec.Thread {
	id := r.nextID
	r.nextID++
	return exec.NewThread(r.gate, id, name, func(ec *exec.Context) {
		fn(&CPUContext{Context: ec, rt: r})
	})
}

// Now reports the current simulated time.
func (r *Runtime) Now() sim.Time { return r.clockFn() }

// MallocArea is the shared-memory region through which MTTOP threads request
// dynamic allocation from a serving CPU thread (the paper's mttop_malloc).
// Flags is an array of uint32 (one per thread), Sizes and Results are arrays
// of uint64.
type MallocArea struct {
	Flags   mem.VAddr
	Sizes   mem.VAddr
	Results mem.VAddr
	// FirstTID is the thread ID corresponding to index 0 of the arrays.
	FirstTID int
}

// flagAddr returns the address of a thread's request flag.
func (a MallocArea) flagAddr(tid int) mem.VAddr {
	return a.Flags + mem.VAddr(4*(tid-a.FirstTID))
}

func (a MallocArea) sizeAddr(tid int) mem.VAddr {
	return a.Sizes + mem.VAddr(8*(tid-a.FirstTID))
}

func (a MallocArea) resultAddr(tid int) mem.VAddr {
	return a.Results + mem.VAddr(8*(tid-a.FirstTID))
}

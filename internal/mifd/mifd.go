package mifd

import (
	"fmt"

	"ccsvm/internal/cpu"
	"ccsvm/internal/exec"
	"ccsvm/internal/mem"
	"ccsvm/internal/sim"
	"ccsvm/internal/vm"
)

// ComputeUnit is the MIFD's view of one MTTOP core. The mttop package's Core
// satisfies it; the indirection keeps the device independent of the core
// model.
type ComputeUnit interface {
	FreeContexts() int
	StartThread(t *exec.Thread, cr3 mem.PAddr, onDone func())
	FlushTLB()
}

// ThreadFactory materializes the software thread for one (kernel, tid) pair
// of a task. The xthreads runtime provides it: the kernel ID is this
// simulator's stand-in for the program counter carried by the paper's task
// descriptor.
type ThreadFactory func(kernelID, tid int, args mem.VAddr) *exec.Thread

// TaskDescriptor is what the write syscall delivers to the device:
// {program counter, arguments, first thread ID, last thread ID, CR3}.
type TaskDescriptor struct {
	KernelID int
	Args     mem.VAddr
	FirstTID int
	LastTID  int
	CR3      mem.PAddr
}

// Threads reports how many threads the task spawns.
func (t TaskDescriptor) Threads() int { return t.LastTID - t.FirstTID + 1 }

// Config describes the device's timing.
type Config struct {
	// DispatchLatency is the device-side latency from receiving a task
	// descriptor to beginning thread assignment.
	DispatchLatency sim.Duration
	// PerWarpLatency is the assignment cost per SIMD-width chunk of threads.
	PerWarpLatency sim.Duration
	// WarpSize is the SIMD-width chunk in which threads are handed to cores
	// (a warp/wavefront).
	WarpSize int
}

// DefaultConfig returns the dispatch costs used by the CCSVM machine: a small
// microcontroller-style latency, orders of magnitude below an OpenCL kernel
// launch.
func DefaultConfig() Config {
	return Config{
		DispatchLatency: 500 * sim.Nanosecond,
		PerWarpLatency:  20 * sim.Nanosecond,
		WarpSize:        8,
	}
}

// Device is the MTTOP interface device.
type Device struct {
	engine  *sim.Engine
	cfg     Config
	units   []ComputeUnit
	factory ThreadFactory
	// faultCPU is the CPU core that services MTTOP page faults (core 0, as
	// in the paper's design where the MIFD may interrupt a CPU core).
	faultCPU *cpu.Core

	// pending holds the launched tasks with threads waiting for a free
	// context, one entry per task, oldest first.
	pending []pendingTask
	// dispatchFn is dispatch, bound once: every thread's onDone callback.
	dispatchFn func()
	// rr is the round-robin cursor over compute units.
	rr int
	// errorRegister latches a description of the last resource shortfall.
	errorRegister string

	Stats Stats
}

// Stats are the device's task-launch counters.
type Stats struct {
	// Tasks counts launched tasks; ThreadsDispatched counts threads placed
	// on a hardware context.
	Tasks, ThreadsDispatched uint64
	// PageFaultsForwarded counts MTTOP faults sent to the fault CPU;
	// TLBFlushBroadcasts counts shootdown flushes sent to every unit.
	PageFaultsForwarded, TLBFlushBroadcasts uint64
}

// pendingTask is a launched task whose threads from next to task.LastTID
// wait for a free context.
type pendingTask struct {
	task TaskDescriptor
	next int
}

// NewDevice builds the MIFD.
func NewDevice(engine *sim.Engine, cfg Config) *Device {
	if cfg.WarpSize <= 0 {
		cfg.WarpSize = 8
	}
	d := &Device{engine: engine, cfg: cfg}
	d.dispatchFn = d.dispatch
	return d
}

// AttachUnits registers the MTTOP cores the device schedules onto.
func (d *Device) AttachUnits(units ...ComputeUnit) { d.units = append(d.units, units...) }

// SetThreadFactory installs the xthreads runtime's kernel-launch hook.
func (d *Device) SetThreadFactory(f ThreadFactory) { d.factory = f }

// SetFaultCPU selects the CPU core the device interrupts for page faults.
func (d *Device) SetFaultCPU(c *cpu.Core) { d.faultCPU = c }

// ErrorRegister returns the device's error register: empty when no resource
// shortfall has occurred, otherwise a description of the last one. The paper
// specifies the MIFD writes this register instead of guaranteeing that a task
// needing global synchronization is fully scheduled.
func (d *Device) ErrorRegister() string { return d.errorRegister }

// TotalFreeContexts reports the free thread contexts across all MTTOP cores.
func (d *Device) TotalFreeContexts() int {
	n := 0
	for _, u := range d.units {
		n += u.FreeContexts()
	}
	return n
}

// Launch accepts a task descriptor (the payload of the write syscall) and
// schedules its threads onto MTTOP cores. done, if non-nil, runs once the
// device has finished dispatching (not when the threads finish — completion
// is observed through memory, as in the xthreads programming model).
func (d *Device) Launch(task TaskDescriptor, done func()) {
	if d.factory == nil {
		panic("mifd: Launch before SetThreadFactory")
	}
	if task.LastTID < task.FirstTID {
		panic(fmt.Sprintf("mifd: invalid thread range %d..%d", task.FirstTID, task.LastTID))
	}
	d.Stats.Tasks++
	if task.Threads() > d.TotalFreeContexts() {
		d.errorRegister = fmt.Sprintf("task with %d threads exceeds %d free MTTOP contexts",
			task.Threads(), d.TotalFreeContexts())
	}
	warps := (task.Threads() + d.cfg.WarpSize - 1) / d.cfg.WarpSize
	delay := d.cfg.DispatchLatency + sim.Duration(warps)*d.cfg.PerWarpLatency
	d.engine.Schedule(delay, func() {
		d.pending = append(d.pending, pendingTask{task: task, next: task.FirstTID})
		d.dispatch()
		if done != nil {
			done()
		}
	})
}

// dispatch assigns as many pending threads as free contexts allow, in
// round-robin order over the MTTOP cores.
func (d *Device) dispatch() {
	if len(d.units) == 0 {
		panic("mifd: no compute units attached")
	}
	for len(d.pending) > 0 {
		unit := d.nextFreeUnit()
		if unit == nil {
			return
		}
		task, tid := d.pending[0].task, d.pending[0].next
		d.pending[0].next++
		if tid == task.LastTID {
			d.pending = d.pending[:copy(d.pending, d.pending[1:])]
		}
		t := d.factory(task.KernelID, tid, task.Args)
		d.Stats.ThreadsDispatched++
		// When the thread finishes, a context has freed up: dispatch tries
		// to place queued threads.
		unit.StartThread(t, task.CR3, d.dispatchFn)
	}
}

// nextFreeUnit returns the next compute unit with a free context, advancing
// the round-robin cursor, or nil if none has capacity.
func (d *Device) nextFreeUnit() ComputeUnit {
	for i := 0; i < len(d.units); i++ {
		u := d.units[(d.rr+i)%len(d.units)]
		if u.FreeContexts() > 0 {
			d.rr = (d.rr + i + 1) % len(d.units)
			return u
		}
	}
	return nil
}

// RaiseMTTOPPageFault implements the mttop package's FaultHandler: the device
// interrupts the designated CPU core, which runs the kernel's fault handler
// and replays the PTE store through its cache; the faulting MTTOP access then
// resumes.
func (d *Device) RaiseMTTOPPageFault(fault *vm.Fault, resume func()) {
	if d.faultCPU == nil {
		panic("mifd: page fault raised before SetFaultCPU")
	}
	d.Stats.PageFaultsForwarded++
	d.faultCPU.RaiseInterrupt(cpu.Interrupt{
		Name: "mttop-page-fault",
		Service: func(serviced func()) {
			d.faultCPU.ServicePageFault(fault, func() {
				serviced()
				resume()
			})
		},
	})
}

// FlushAllTLBs broadcasts a TLB flush to every MTTOP core (the conservative
// shootdown of Section 3.2.1).
func (d *Device) FlushAllTLBs() {
	d.Stats.TLBFlushBroadcasts++
	for _, u := range d.units {
		u.FlushTLB()
	}
}

// PendingThreads reports how many threads are waiting for a free context.
func (d *Device) PendingThreads() int {
	n := 0
	for _, p := range d.pending {
		n += p.task.LastTID - p.next + 1
	}
	return n
}

// Package opencl is the OpenCL-style runtime of the APU baseline machine. It
// mirrors the host API the paper's Figure 3 program uses — platform/context
// initialization, program building, pinned zero-copy buffers with map/unmap,
// kernel-argument setup, NDRange kernel launches and Finish — and charges the
// driver overheads that make small offloads expensive on a loosely-coupled
// chip: every CPU↔GPU hand-off stages data through DRAM and pays launch and
// synchronization costs, because the APU has no cache-coherent shared virtual
// memory.
package opencl

import (
	"fmt"

	"ccsvm/internal/apu"
	"ccsvm/internal/exec"
	"ccsvm/internal/mem"
	"ccsvm/internal/sim"
)

// WorkItemFunc is an OpenCL kernel body: it runs once per work-item on the
// simulated GPU.
type WorkItemFunc func(ctx *WorkItemContext)

// WorkItemContext is the device-side API of a kernel: loads/stores/atomics on
// the APU's physical address space (the GPU bypasses the CPU caches), the
// work-item's global ID, and its kernel arguments.
type WorkItemContext struct {
	*exec.Context
	globalID int
	args     []uint64
}

// GlobalID is get_global_id(0).
func (c *WorkItemContext) GlobalID() int { return c.globalID }

// Arg returns the i-th kernel argument as set at enqueue time.
func (c *WorkItemContext) Arg(i int) uint64 { return c.args[i] }

// ArgPtr returns the i-th kernel argument interpreted as a buffer address.
func (c *WorkItemContext) ArgPtr(i int) mem.VAddr { return mem.VAddr(c.args[i]) }

// Buffer is a pinned, zero-copy cl_mem allocation in host DRAM
// (CL_MEM_ALLOC_HOST_PTR, as in the paper's host code).
type Buffer struct {
	Base mem.VAddr
	Size uint64
}

// Session is one OpenCL platform+context+queue on an APU machine.
type Session struct {
	m         *apu.Machine
	over      apu.OpenCLOverheads
	kernels   []WorkItemFunc
	inited    bool
	built     bool
	pendingWI []pendingItem
	running   int
	rr        int
}

type pendingItem struct {
	kernel int
	gid    int
	args   []uint64
}

// NewSession creates a session bound to an APU machine.
func NewSession(m *apu.Machine) *Session {
	return &Session{m: m, over: m.Config.OpenCL}
}

// charge burns host time for a driver overhead and books it to a category
// counter of the machine's OpenCLStats, which every session on the machine
// shares, so per-run metrics can break the total down.
func (s *Session) charge(ctx *apu.HostContext, d sim.Duration, category *uint64) {
	if d <= 0 {
		return
	}
	*category += uint64(d)
	ctx.Delay(d)
}

// InitPlatform performs clGetPlatformIDs / clGetDeviceIDs / clCreateContext /
// clCreateCommandQueue: the one-time runtime initialization whose cost the
// paper's "without OpenCL initialization" series excludes.
func (s *Session) InitPlatform(ctx *apu.HostContext) {
	if s.inited {
		return
	}
	s.inited = true
	s.charge(ctx, s.over.PlatformInit, &s.m.OpenCL.InitPs)
}

// BuildProgram performs clCreateProgramWithSource + clBuildProgram (the JIT
// compilation the paper's "without compilation" series excludes).
func (s *Session) BuildProgram(ctx *apu.HostContext) {
	if s.built {
		return
	}
	s.built = true
	s.charge(ctx, s.over.ProgramBuild, &s.m.OpenCL.InitPs)
}

// CreateKernel registers a kernel body and returns its handle
// (clCreateKernel).
func (s *Session) CreateKernel(fn WorkItemFunc) int {
	s.kernels = append(s.kernels, fn)
	return len(s.kernels) - 1
}

// CreateBuffer allocates a pinned zero-copy buffer (clCreateBuffer with
// CL_MEM_ALLOC_HOST_PTR).
func (s *Session) CreateBuffer(ctx *apu.HostContext, size uint64) Buffer {
	s.charge(ctx, s.over.BufferCreate, &s.m.OpenCL.StagingPs)
	return Buffer{Base: s.m.Malloc(size), Size: size}
}

// EnqueueMapBuffer maps a buffer for host access (clEnqueueMapBuffer). When
// the host maps a buffer the GPU may have written, its stale cached copies
// are dropped so the CPU reads what is in DRAM.
func (s *Session) EnqueueMapBuffer(ctx *apu.HostContext, b Buffer) mem.VAddr {
	s.m.OpenCL.BufferMaps++
	s.charge(ctx, s.over.MapBuffer, &s.m.OpenCL.StagingPs)
	s.m.InvalidateCPUCaches(b.Base, b.Size)
	return b.Base
}

// EnqueueUnmapBuffer unmaps a buffer (clEnqueueUnmapMemObject): dirty lines
// the CPU wrote are flushed to DRAM so the GPU, which bypasses the CPU
// caches, observes them.
func (s *Session) EnqueueUnmapBuffer(ctx *apu.HostContext, b Buffer) {
	s.charge(ctx, s.over.UnmapBuffer, &s.m.OpenCL.StagingPs)
	s.m.FlushCPUCaches(b.Base, b.Size)
}

// EnqueueNDRangeKernel launches globalSize work-items of the kernel with the
// given arguments (clSetKernelArg × args + clEnqueueNDRangeKernel). The call
// returns once the launch has been queued to the device; Finish waits for
// completion.
func (s *Session) EnqueueNDRangeKernel(ctx *apu.HostContext, kernel int, globalSize int, args ...uint64) {
	if kernel < 0 || kernel >= len(s.kernels) {
		panic(fmt.Sprintf("opencl: unknown kernel %d", kernel))
	}
	if !s.inited {
		panic("opencl: EnqueueNDRangeKernel before InitPlatform")
	}
	s.m.OpenCL.KernelLaunches++
	for range args {
		s.charge(ctx, s.over.SetKernelArg, &s.m.OpenCL.LaunchPs)
	}
	s.charge(ctx, s.over.KernelLaunch, &s.m.OpenCL.LaunchPs)
	for gid := 0; gid < globalSize; gid++ {
		s.pendingWI = append(s.pendingWI, pendingItem{kernel: kernel, gid: gid, args: args})
	}
	s.dispatch()
}

// dispatch hands pending work-items to GPU SIMD units with free contexts.
func (s *Session) dispatch() {
	units := s.m.GPUUnits
	for len(s.pendingWI) > 0 {
		var unit int = -1
		for i := 0; i < len(units); i++ {
			u := (s.rr + i) % len(units)
			if units[u].FreeContexts() > 0 {
				unit = u
				s.rr = (u + 1) % len(units)
				break
			}
		}
		if unit == -1 {
			return
		}
		item := s.pendingWI[0]
		s.pendingWI = s.pendingWI[1:]
		s.m.OpenCL.WorkItems++
		s.running++
		fn := s.kernels[item.kernel]
		gid := item.gid
		args := item.args
		t := exec.NewThread(s.m.ExecGate(), gid, fmt.Sprintf("cl-k%d-wi%d", item.kernel, gid), func(ec *exec.Context) {
			fn(&WorkItemContext{Context: ec, globalID: gid, args: args})
		})
		s.m.TrackThread(t)
		units[unit].StartThread(t, 0, func() {
			s.running--
			s.dispatch()
		})
	}
}

// Finish blocks the host thread until every enqueued work-item has completed
// (clFinish). The host polls the driver with microsecond-scale granularity,
// which is how the real runtime's synchronization cost appears to an
// application.
func (s *Session) Finish(ctx *apu.HostContext) {
	s.charge(ctx, s.over.FinishOverhead, &s.m.OpenCL.LaunchPs)
	// The poll interval must stay positive even when a design-space sweep
	// sets FinishOverhead to zero: a free poll would never advance simulated
	// time and the loop would spin forever.
	poll := s.over.FinishOverhead / 4
	if poll <= 0 {
		poll = sim.Nanosecond
	}
	for s.running > 0 || len(s.pendingWI) > 0 {
		s.charge(ctx, poll, &s.m.OpenCL.LaunchPs)
	}
}

// Outstanding reports queued plus running work-items (for tests).
func (s *Session) Outstanding() int { return s.running + len(s.pendingWI) }

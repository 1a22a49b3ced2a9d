package apu

import (
	"fmt"

	"ccsvm/internal/cache"
	"ccsvm/internal/cpu"
	"ccsvm/internal/dram"
	"ccsvm/internal/exec"
	"ccsvm/internal/kernelos"
	"ccsvm/internal/mem"
	"ccsvm/internal/mttop"
	"ccsvm/internal/sim"
	"ccsvm/internal/simarena"
)

// Config describes the APU baseline machine (Table 2, right column).
type Config struct {
	// NumCPUs is the number of out-of-order x86 cores (4).
	NumCPUs int
	// CPUClockHz is the CPU frequency (2.9 GHz).
	CPUClockHz float64
	// CPUCPI is the cycles per instruction (0.25 => max IPC 4).
	CPUCPI float64
	// CPUCaches is each core's private hierarchy.
	CPUCaches HierarchyConfig

	// GPUSIMDUnits is the number of SIMD processing units (5).
	GPUSIMDUnits int
	// GPULanes is the number of VLIW Radeon cores per SIMD unit (16).
	GPULanes int
	// GPUVLIWOpsPerInstr is the average number of useful operations packed
	// into each VLIW instruction (1..4). The paper notes the APU's peak is
	// 4x the CCSVM MTTOP at full VLIW utilization and equal at minimum; the
	// default of 2 sits in the middle.
	GPUVLIWOpsPerInstr int
	// GPUClockHz is the GPU frequency (600 MHz).
	GPUClockHz float64
	// GPUContextsPerUnit is the number of in-flight work-items per SIMD unit.
	GPUContextsPerUnit int
	// GPUMem is the GPU-side memory path.
	GPUMem GPUMemConfig

	// DRAM is the off-chip memory (8 GB DDR3, 72 ns).
	DRAM dram.Config
	// OpenCL holds the driver/runtime overheads.
	OpenCL OpenCLOverheads
	// MaxSimulatedTime bounds a run.
	MaxSimulatedTime sim.Duration

	// arena, when set, supplies recycled machine parts to NewMachine and
	// receives them back at Shutdown. Unexported on purpose: execution
	// plumbing, not configuration — out of the canonical spec encoding and
	// the override namespace, and never a Result input.
	arena *simarena.Arena
}

// InArena returns the configuration with machine-part recycling through the
// given arena (nil means build everything fresh). See internal/simarena.
func (c Config) InArena(a *simarena.Arena) Config {
	c.arena = a
	return c
}

// OpenCLOverheads are the driver and runtime constants of the baseline's
// software stack. They model what the paper's Figure 5 separates into "full
// runtime" vs "runtime without compilation and OpenCL initialization":
// one-time platform/context setup and program JIT compilation, plus per-call
// costs for buffer mapping and kernel launch that are paid on every offload.
type OpenCLOverheads struct {
	PlatformInit   sim.Duration
	ProgramBuild   sim.Duration
	BufferCreate   sim.Duration
	MapBuffer      sim.Duration
	UnmapBuffer    sim.Duration
	SetKernelArg   sim.Duration
	KernelLaunch   sim.Duration
	FinishOverhead sim.Duration
}

// DefaultOpenCLOverheads returns driver constants in line with published
// measurements of OpenCL 1.x stacks on Llano-class parts.
func DefaultOpenCLOverheads() OpenCLOverheads {
	return OpenCLOverheads{
		PlatformInit:   80 * sim.Millisecond,
		ProgramBuild:   150 * sim.Millisecond,
		BufferCreate:   4 * sim.Microsecond,
		MapBuffer:      8 * sim.Microsecond,
		UnmapBuffer:    8 * sim.Microsecond,
		SetKernelArg:   200 * sim.Nanosecond,
		KernelLaunch:   30 * sim.Microsecond,
		FinishOverhead: 10 * sim.Microsecond,
	}
}

// Validate checks the configuration for structural problems, including the
// VLIW packing factor the machine model only defines for 1..4 ops per
// instruction and the 64-core ceiling of the CPU snoop filter.
func (c Config) Validate() error {
	checks := []struct {
		ok   bool
		name string
	}{
		// The CPU snoop filter keeps one bit per core in a uint64.
		{c.NumCPUs > 0 && c.NumCPUs <= 64, "NumCPUs"},
		{c.CPUClockHz > 0, "CPUClockHz"},
		{c.CPUCPI > 0, "CPUCPI"},
		{c.GPUSIMDUnits > 0, "GPUSIMDUnits"},
		{c.GPULanes > 0, "GPULanes"},
		{c.GPUVLIWOpsPerInstr >= 1 && c.GPUVLIWOpsPerInstr <= 4, "GPUVLIWOpsPerInstr"},
		{c.GPUClockHz > 0, "GPUClockHz"},
		{c.GPUContextsPerUnit > 0, "GPUContextsPerUnit"},
		{c.DRAM.SizeBytes > 0, "DRAM.SizeBytes"},
		{c.CPUCaches.L1.SizeBytes > 0, "CPUCaches.L1.SizeBytes"},
		{c.CPUCaches.L1.Assoc > 0, "CPUCaches.L1.Assoc"},
		{c.CPUCaches.L2.SizeBytes > 0, "CPUCaches.L2.SizeBytes"},
		{c.CPUCaches.L2.Assoc > 0, "CPUCaches.L2.Assoc"},
		{c.GPUMem.ReadCacheBytes > 0, "GPUMem.ReadCacheBytes"},
		{c.GPUMem.ReadCacheAssoc > 0, "GPUMem.ReadCacheAssoc"},
		{c.GPUMem.WriteBufferLines > 0, "GPUMem.WriteBufferLines"},
		// Negative latencies would schedule events in the past (an engine
		// panic); zero is allowed — a free driver call or an idealized cache
		// is a legitimate what-if sweep point.
		{c.CPUCaches.L1Hit >= 0, "CPUCaches.L1Hit"},
		{c.CPUCaches.L2Hit >= 0, "CPUCaches.L2Hit"},
		{c.GPUMem.ReadHit >= 0, "GPUMem.ReadHit"},
		{c.DRAM.Latency >= 0, "DRAM.Latency"},
		{c.DRAM.Bandwidth >= 0, "DRAM.Bandwidth"},
		{c.OpenCL.PlatformInit >= 0, "OpenCL.PlatformInit"},
		{c.OpenCL.ProgramBuild >= 0, "OpenCL.ProgramBuild"},
		{c.OpenCL.BufferCreate >= 0, "OpenCL.BufferCreate"},
		{c.OpenCL.MapBuffer >= 0, "OpenCL.MapBuffer"},
		{c.OpenCL.UnmapBuffer >= 0, "OpenCL.UnmapBuffer"},
		{c.OpenCL.SetKernelArg >= 0, "OpenCL.SetKernelArg"},
		{c.OpenCL.KernelLaunch >= 0, "OpenCL.KernelLaunch"},
		{c.OpenCL.FinishOverhead >= 0, "OpenCL.FinishOverhead"},
		{c.MaxSimulatedTime > 0, "MaxSimulatedTime"},
	}
	for _, chk := range checks {
		if !chk.ok {
			return &ConfigError{Field: chk.name}
		}
	}
	return nil
}

// ConfigError reports an invalid configuration field.
type ConfigError struct{ Field string }

// Error implements error.
func (e *ConfigError) Error() string { return "apu: invalid configuration field " + e.Field }

// DefaultConfig returns the Table 2 APU configuration.
func DefaultConfig() Config {
	return Config{
		NumCPUs:            4,
		CPUClockHz:         2.9e9,
		CPUCPI:             0.25,
		CPUCaches:          DefaultHierarchyConfig("apu.cpu"),
		GPUSIMDUnits:       5,
		GPULanes:           16,
		GPUVLIWOpsPerInstr: 2,
		GPUClockHz:         600e6,
		GPUContextsPerUnit: 256,
		GPUMem:             DefaultGPUMemConfig(),
		DRAM:               dram.DefaultAPUConfig(),
		OpenCL:             DefaultOpenCLOverheads(),
		MaxSimulatedTime:   30 * sim.Second,
	}
}

// Machine is one APU instance: CPU cores with private caches, a VLIW GPU
// behind a non-coherent DRAM path, and a flat (physically addressed) heap for
// the host program and its pinned buffers.
type Machine struct {
	Config Config
	Engine *sim.Engine
	Phys   *mem.Physical
	DRAM   *dram.Controller

	CPUs     []*cpu.Core
	CPUMem   []*PrivateHierarchy
	GPUUnits []*mttop.Core
	GPUMem   *GPUMemory
	// OpenCL accumulates the driver activity of every OpenCL session on the
	// machine (see package opencl).
	OpenCL OpenCLStats

	kernel  *kernelos.Kernel
	heapPtr mem.VAddr
	threads []*exec.Thread
	// gate is the cooperative scheduler every software thread of this machine
	// runs under (see exec.Gate); RunThreads drives the engine through it.
	gate *exec.Gate

	// arena, when non-nil, receives the engine, physical memory and cache
	// tag arrays back at Shutdown so the worker's next machine reuses them.
	arena *simarena.Arena
	// arrays is every tag array the machine drew (see array).
	arrays []*cache.Array
}

// NewMachine builds an APU. When the configuration carries an arena
// (Config.InArena), the engine, physical memory and cache tag arrays come
// from it; reuse is observation-equivalent to fresh construction.
func NewMachine(cfg Config) *Machine {
	m := &Machine{
		Config: cfg,
		Engine: cfg.arena.Engine(),
		arena:  cfg.arena,
		arrays: make([]*cache.Array, 0, 2*cfg.NumCPUs+1),
	}
	// Always-on event-trace fingerprint, surfaced as sim.trace_hash_hi/lo
	// (see core.NewMachine).
	m.Engine.EnableTraceHash()
	m.Phys = cfg.arena.Physical(cfg.DRAM.SizeBytes)
	m.DRAM = dram.NewController(m.Engine, cfg.DRAM)
	m.kernel = kernelos.NewKernel(m.Phys, 16, kernelos.DefaultCosts())
	m.gate = exec.NewGate()
	// See core.NewMachine: thread activations pending at a schedule point
	// must schedule first to keep the event trace order.
	m.gate.Bind(m.Engine)
	m.heapPtr = 0x4000_0000 // identity-mapped flat heap, clear of page tables

	cpuClock := sim.NewClock("apu.cpu", cfg.CPUClockHz)
	gpuClock := sim.NewClock("apu.gpu", cfg.GPUClockHz)
	filter := newSnoopFilter()
	for i := 0; i < cfg.NumCPUs; i++ {
		name := fmt.Sprintf("apu.cpu%d", i)
		hcfg := cfg.CPUCaches
		hcfg.L1.Name = name + ".l1"
		hcfg.L2.Name = name + ".l2"
		hier := NewPrivateHierarchy(m.Engine, hcfg, m.array(hcfg.L1), m.array(hcfg.L2), m.DRAM, filter)
		m.CPUMem = append(m.CPUMem, hier)
		core := cpu.New(m.Engine, m.gate, cpu.Config{Clock: cpuClock, CPI: cfg.CPUCPI, Name: name}, hier, nil, m.Phys, m.kernel)
		m.CPUs = append(m.CPUs, core)
	}

	rdcache := m.array(cache.Config{SizeBytes: cfg.GPUMem.ReadCacheBytes, Assoc: cfg.GPUMem.ReadCacheAssoc, Name: "gpu.rdcache"})
	m.GPUMem = NewGPUMemory(m.Engine, cfg.GPUMem, rdcache, m.DRAM)
	issueWidth := cfg.GPULanes * cfg.GPUVLIWOpsPerInstr
	for i := 0; i < cfg.GPUSIMDUnits; i++ {
		unit := mttop.New(m.Engine, mttop.Config{
			Clock:       gpuClock,
			NumContexts: cfg.GPUContextsPerUnit,
			IssueWidth:  issueWidth,
			Name:        fmt.Sprintf("apu.gpu%d", i),
		}, m.GPUMem, nil, m.Phys, nil)
		m.GPUUnits = append(m.GPUUnits, unit)
	}
	return m
}

// array draws a tag array from the machine's arena (a fresh one without an
// arena) and records it for Shutdown to hand back.
func (m *Machine) array(cfg cache.Config) *cache.Array {
	arr := m.arena.Array(cfg)
	m.arrays = append(m.arrays, arr)
	return arr
}

// Malloc reserves heap space in the flat, identity-mapped address space.
func (m *Machine) Malloc(size uint64) mem.VAddr {
	base := mem.AlignUp(m.heapPtr, 64)
	m.heapPtr = base + mem.VAddr(size)
	if uint64(m.heapPtr) >= m.Phys.Size() {
		panic("apu: heap exhausted")
	}
	return base
}

// Now reports the current simulated time.
func (m *Machine) Now() sim.Time { return m.Engine.Now() }

// DRAMAccesses reports the off-chip access count (Figure 9's metric).
func (m *Machine) DRAMAccesses() uint64 { return m.DRAM.Accesses() }

// MemWriteUint32 functionally initializes memory (loading inputs).
func (m *Machine) MemWriteUint32(va mem.VAddr, v uint32) { m.Phys.WriteUint32(mem.PAddr(va), v) }

// MemReadUint32 functionally reads memory (checking outputs).
func (m *Machine) MemReadUint32(va mem.VAddr) uint32 { return m.Phys.ReadUint32(mem.PAddr(va)) }

// MemWriteUint64 functionally writes a 64-bit value.
func (m *Machine) MemWriteUint64(va mem.VAddr, v uint64) { m.Phys.WriteUint64(mem.PAddr(va), v) }

// MemReadUint64 functionally reads a 64-bit value.
func (m *Machine) MemReadUint64(va mem.VAddr) uint64 { return m.Phys.ReadUint64(mem.PAddr(va)) }

// HostContext is the API available to host (CPU-side) code on the APU: the
// low-level operation set plus heap allocation and the machine clock.
type HostContext struct {
	*exec.Context
	m *Machine
}

// Machine returns the machine the context runs on.
func (c *HostContext) Machine() *Machine { return c.m }

// Now reports simulated time (for measurement windows).
func (c *HostContext) Now() sim.Time { return c.m.Now() }

// Malloc allocates from the flat heap, charging a libc-like cost.
func (c *HostContext) Malloc(size uint64) mem.VAddr {
	c.Compute(80)
	return c.m.Malloc(size)
}

// Free charges the cost of freeing (the flat heap never reuses memory).
func (c *HostContext) Free(mem.VAddr) { c.Compute(20) }

// Delay burns host CPU time equivalent to the given duration; the OpenCL
// runtime uses it to charge driver overheads that are measured in wall-clock
// time rather than instructions.
func (c *HostContext) Delay(d sim.Duration) {
	if d <= 0 {
		return
	}
	perInstr := float64(c.m.Config.CPUCPI) * float64(sim.NewClock("cpu", c.m.Config.CPUClockHz).Period)
	instrs := int64(float64(d)/perInstr + 0.5)
	if instrs < 1 {
		instrs = 1
	}
	c.Compute(instrs)
}

// FlushCPUCaches writes back and invalidates the address range in every CPU
// core's private hierarchy (the driver does this when pinned buffers are
// unmapped so the GPU sees the data in DRAM).
func (m *Machine) FlushCPUCaches(base mem.VAddr, size uint64) {
	for _, h := range m.CPUMem {
		h.FlushRange(base, size, nil)
	}
}

// InvalidateCPUCaches drops the address range from every CPU hierarchy (the
// driver does this before the CPU reads results the GPU wrote to DRAM).
func (m *Machine) InvalidateCPUCaches(base mem.VAddr, size uint64) {
	for _, h := range m.CPUMem {
		h.InvalidateRange(base, size)
	}
}

// HostFunc is a CPU-side program on the APU.
type HostFunc func(ctx *HostContext)

// newHostThread wraps a host function as a software thread.
func (m *Machine) newHostThread(name string, fn HostFunc) *exec.Thread {
	t := exec.NewThread(m.gate, len(m.threads), name, func(ec *exec.Context) {
		fn(&HostContext{Context: ec, m: m})
	})
	m.threads = append(m.threads, t)
	return t
}

// TrackThread registers an externally created thread (GPU work-items) for
// teardown.
func (m *Machine) TrackThread(t *exec.Thread) { m.threads = append(m.threads, t) }

// ExecGate exposes the machine's thread scheduler so runtimes layered on the
// machine (the OpenCL session) can create threads that run under it.
func (m *Machine) ExecGate() *exec.Gate { return m.gate }

// RunProgram runs a single host program on CPU core 0 to completion and
// returns the simulated time consumed.
func (m *Machine) RunProgram(fn HostFunc) (sim.Duration, error) {
	return m.RunThreads([]HostFunc{fn})
}

// RunThreads runs one host function per CPU core (pthreads-style), starting
// them together, and returns the simulated time until all have finished and
// the machine has quiesced.
func (m *Machine) RunThreads(fns []HostFunc) (sim.Duration, error) {
	if len(fns) > len(m.CPUs) {
		return 0, fmt.Errorf("apu: %d threads exceed %d CPU cores", len(fns), len(m.CPUs))
	}
	start := m.Engine.Now()
	deadline := start.Add(m.Config.MaxSimulatedTime)
	remaining := len(fns)
	for i, fn := range fns {
		t := m.newHostThread(fmt.Sprintf("host%d", i), fn)
		m.CPUs[i].Run(t, func() { remaining-- })
	}
	// Drive the engine through the gate: thread activations and event
	// dispatch interleave in completion order (see exec.Gate), and the run
	// continues past the last host thread's return to drain remaining
	// activity.
	overBudget := false
	m.gate.Drive(func() bool {
		if m.Engine.Now() > deadline {
			overBudget = true
			return false
		}
		return m.Engine.Step()
	})
	if overBudget {
		m.Shutdown()
		if remaining > 0 {
			return 0, fmt.Errorf("apu: program exceeded the %v simulated-time budget", m.Config.MaxSimulatedTime)
		}
		return 0, fmt.Errorf("apu: post-main activity exceeded the simulated-time budget")
	}
	if remaining > 0 {
		m.Shutdown()
		return 0, fmt.Errorf("apu: simulation ran out of events with %d host threads unfinished", remaining)
	}
	return m.Engine.Now().Sub(start), nil
}

// Shutdown tears down any unfinished software threads. A machine built in an
// arena also hands its recyclable parts back here, after which the machine
// must not be used again; arena-less machines remain readable.
func (m *Machine) Shutdown() {
	for _, t := range m.threads {
		if !t.Finished() {
			t.Kill()
		}
	}
	a := m.arena
	if a == nil {
		return
	}
	m.arena = nil
	for i := range m.arrays {
		arr := m.arrays[i]
		m.arrays[i] = nil
		a.RecycleArray(arr)
	}
	m.arrays = nil
	a.RecycleEngine(m.Engine)
	a.RecyclePhysical(m.Phys)
}

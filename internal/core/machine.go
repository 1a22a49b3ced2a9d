package core

import (
	"fmt"
	"math"

	"ccsvm/internal/cache"
	"ccsvm/internal/coherence"
	"ccsvm/internal/cpu"
	"ccsvm/internal/dram"
	"ccsvm/internal/exec"
	"ccsvm/internal/kernelos"
	"ccsvm/internal/mem"
	"ccsvm/internal/mifd"
	"ccsvm/internal/mttop"
	"ccsvm/internal/noc"
	"ccsvm/internal/sim"
	"ccsvm/internal/simarena"
	"ccsvm/internal/vm"
	"ccsvm/internal/xthreads"
)

// Machine is one instance of the CCSVM chip plus its software environment
// (kernel, process, xthreads runtime). Build it with NewMachine, register
// MTTOP kernels, then RunProgram an xthreads main function.
type Machine struct {
	Config  Config
	Engine  *sim.Engine
	Phys    *mem.Physical
	Kernel  *kernelos.Kernel
	Process *kernelos.Process
	Runtime *xthreads.Runtime
	MIFD    *mifd.Device
	DRAM    *dram.Controller
	Checker *coherence.Checker

	CPUs   []*cpu.Core
	MTTOPs []*mttop.Core

	l1s   []*coherence.L1Controller
	banks []*coherence.DirectoryBank
	// msgs is the protocol-message pool every L1 and bank shares.
	msgs  coherence.MsgPool
	torus *noc.Torus
	// arrays is every cache tag array the machine drew (see array), handed
	// back to the arena at Shutdown.
	arrays []*cache.Array
	// tables is every bank's directory entry table, handed back likewise.
	tables []*coherence.DirTable

	// gate is the cooperative scheduler every software thread of this machine
	// runs under (see exec.Gate); RunProgram drives the engine through it.
	gate *exec.Gate

	// arena, when non-nil, receives the engine, physical memory, tag arrays,
	// SWMR checker, directory tables and message populations back at
	// Shutdown so the worker's next machine reuses them.
	arena *simarena.Arena
}

// NewMachine builds and wires a CCSVM chip from the configuration. When the
// configuration carries an arena (Config.InArena), the engine, physical
// memory, cache tag arrays, SWMR checker, directory tables and message-pool
// populations come from it; reuse is observation-equivalent to fresh
// construction.
func NewMachine(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Machine{
		Config: cfg,
		Engine: cfg.arena.Engine(),
		arena:  cfg.arena,
		arrays: make([]*cache.Array, 0, cfg.NumCPUs+cfg.NumMTTOPs+cfg.L2Banks),
		tables: make([]*coherence.DirTable, 0, cfg.L2Banks),
	}
	// The trace hash is always on: it costs two integer multiplies per event
	// and gives every run a fingerprint of its exact event order, surfaced
	// through Metrics as sim.trace_hash_hi/lo.
	m.Engine.EnableTraceHash()
	m.Phys = cfg.arena.Physical(cfg.DRAM.SizeBytes)
	m.Checker = cfg.arena.Checker()
	m.DRAM = dram.NewController(m.Engine, cfg.DRAM)

	cpuClock := sim.NewClock("cpu", cfg.CPUClockHz)
	mttopClock := sim.NewClock("mttop", cfg.MTTOPClockHz)

	// Node numbering on the torus: CPUs, then MTTOPs, then L2/dir banks.
	numNodes := cfg.NumCPUs + cfg.NumMTTOPs + cfg.L2Banks
	// Derive any unset torus dimension from the node count, so overriding
	// just one dimension reshapes the network instead of being ignored.
	width, height := cfg.Torus.Width, cfg.Torus.Height
	switch {
	case width == 0 && height == 0:
		width = int(math.Ceil(math.Sqrt(float64(numNodes))))
		height = (numNodes + width - 1) / width
	case width == 0:
		width = (numNodes + height - 1) / height
	case height == 0:
		height = (numNodes + width - 1) / width
	}
	placement := make(map[noc.NodeID]noc.Coord, numNodes)
	for i := 0; i < numNodes; i++ {
		placement[noc.NodeID(i)] = noc.Coord{X: i % width, Y: i / width}
	}
	torusCfg := noc.DefaultTorusConfig(width, height)
	if cfg.Torus.LinkBandwidth > 0 {
		torusCfg.LinkBandwidth = cfg.Torus.LinkBandwidth
	}
	m.torus = noc.NewTorus(m.Engine, torusCfg, placement)
	m.torus.SeedFreeList(cfg.arena.TakeNocMsgs())
	m.msgs.SeedFreeList(cfg.arena.TakeCohMsgs())

	// L2/directory banks.
	bankIDs := make([]noc.NodeID, cfg.L2Banks)
	for i := range bankIDs {
		bankIDs[i] = noc.NodeID(cfg.NumCPUs + cfg.NumMTTOPs + i)
	}
	mapper := coherence.InterleaveBanks(bankIDs)
	// Validate guaranteed the protocol name resolves.
	proto, err := coherence.LookupProtocol(cfg.Coherence.Protocol)
	if err != nil {
		panic(err)
	}
	for i, id := range bankIDs {
		table := cfg.arena.DirTable()
		m.tables = append(m.tables, table)
		bank := coherence.NewDirectoryBank(m.Engine, id, m.torus, coherence.BankConfig{
			L2:            m.array(cache.Config{SizeBytes: cfg.L2BankBytes, Assoc: cfg.L2Assoc, Name: fmt.Sprintf("l2.%d", i)}),
			AccessLatency: cfg.L2Latency,
			Protocol:      proto,
			Pool:          &m.msgs,
			Table:         table,
			Name:          fmt.Sprintf("l2.%d", i),
		}, m.DRAM)
		m.banks = append(m.banks, bank)
	}

	// Kernel and process.
	m.Kernel = kernelos.NewKernel(m.Phys, 16, cfg.KernelCosts)
	m.Process = m.Kernel.NewProcess()
	m.gate = exec.NewGate()
	// Pending thread activations must schedule before anything an event
	// handler schedules after completing them (see exec.Gate.Drain): this
	// keeps the event trace identical to the historical blocking handoff.
	m.gate.Bind(m.Engine)
	m.Runtime = xthreads.NewRuntime(m.Process, m.Engine.Now, m.gate)

	// MIFD.
	m.MIFD = mifd.NewDevice(m.Engine, cfg.MIFD)
	m.MIFD.SetThreadFactory(m.Runtime.NewMTTOPThread)

	// CPU cores with their private L1s and MMUs.
	for i := 0; i < cfg.NumCPUs; i++ {
		name := fmt.Sprintf("cpu%d", i)
		l1cfg := cfg.CPUL1
		l1cfg.Name = name + ".l1"
		l1 := coherence.NewL1Controller(m.Engine, noc.NodeID(i), m.torus, mapper, coherence.L1Config{
			Cache:      m.array(l1cfg),
			HitLatency: cfg.CPUL1Hit,
			Protocol:   proto,
			Pool:       &m.msgs,
			Name:       name + ".l1",
		}, m.Checker)
		m.l1s = append(m.l1s, l1)
		mmu := vm.NewMMU(vm.TLBConfig{Entries: cfg.TLBEntries}, l1, m.Phys)
		core := cpu.New(m.Engine, m.gate, cpu.Config{Clock: cpuClock, CPI: cfg.CPUCPI, Name: name}, l1, mmu, m.Phys, m.Kernel)
		core.SetSyscallHandler(m.handleSyscall)
		m.CPUs = append(m.CPUs, core)
	}
	m.MIFD.SetFaultCPU(m.CPUs[0])

	// MTTOP cores with their private L1s and MMUs.
	for i := 0; i < cfg.NumMTTOPs; i++ {
		name := fmt.Sprintf("mttop%d", i)
		node := noc.NodeID(cfg.NumCPUs + i)
		l1cfg := cfg.MTTOPL1
		l1cfg.Name = name + ".l1"
		l1 := coherence.NewL1Controller(m.Engine, node, m.torus, mapper, coherence.L1Config{
			Cache:      m.array(l1cfg),
			HitLatency: cfg.MTTOPL1Hit,
			Protocol:   proto,
			Pool:       &m.msgs,
			Name:       name + ".l1",
		}, m.Checker)
		m.l1s = append(m.l1s, l1)
		mmu := vm.NewMMU(vm.TLBConfig{Entries: cfg.TLBEntries}, l1, m.Phys)
		core := mttop.New(m.Engine, mttop.Config{
			Clock:       mttopClock,
			NumContexts: cfg.MTTOPContexts,
			IssueWidth:  cfg.MTTOPIssueWidth,
			Name:        name,
		}, l1, mmu, m.Phys, m.MIFD)
		m.MTTOPs = append(m.MTTOPs, core)
		m.MIFD.AttachUnits(core)
	}

	// TLB shootdowns initiated by a CPU flush every MTTOP TLB via the MIFD.
	m.Kernel.SetShootdownHook(m.MIFD.FlushAllTLBs)

	// CPU cores run with the process's address space loaded.
	for _, c := range m.CPUs {
		c.MMU().SetRoot(m.Process.Root())
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

// handleSyscall is the machine's OS syscall dispatcher; the MIFD driver's
// write syscall is the only service xthreads programs need beyond what the
// library does in user space.
func (m *Machine) handleSyscall(core *cpu.Core, num int, args []uint64, done func(ret uint64)) {
	switch num {
	case xthreads.SysLaunchMTTOPTask:
		if len(args) != 4 {
			panic(fmt.Sprintf("core: launch syscall expects 4 args, got %d", len(args)))
		}
		task := mifd.TaskDescriptor{
			KernelID: int(args[0]),
			Args:     mem.VAddr(args[1]),
			FirstTID: int(args[2]),
			LastTID:  int(args[3]),
			CR3:      core.MMU().Root(),
		}
		m.MIFD.Launch(task, func() { done(0) })
	default:
		panic(fmt.Sprintf("core: unknown syscall %d", num))
	}
}

// RegisterKernel registers an MTTOP kernel and returns the ID that
// CreateMThreads uses (the simulator's stand-in for the kernel's program
// counter, resolved by the compilation toolchain in the paper).
func (m *Machine) RegisterKernel(k xthreads.KernelFunc) int {
	return m.Runtime.RegisterKernel(k)
}

// RunProgram executes an xthreads program: main runs as a software thread on
// CPU core 0; the simulation advances until main has returned and the machine
// has quiesced. It returns the simulated time consumed.
func (m *Machine) RunProgram(main xthreads.MainFunc) (sim.Duration, error) {
	start := m.Engine.Now()
	deadline := start.Add(m.Config.MaxSimulatedTime)
	mainDone := false
	t := m.Runtime.NewCPUThread("main", main)
	m.CPUs[0].Run(t, func() { mainDone = true })
	// Drive the engine through the gate: thread activations and event
	// dispatch interleave in completion order (see exec.Gate), and the run
	// continues past main's return to drain remaining activity (MTTOP threads
	// main did not wait for, in-flight writebacks, etc.).
	overBudget := false
	m.gate.Drive(func() bool {
		if m.Engine.Now() > deadline {
			overBudget = true
			return false
		}
		return m.Engine.Step()
	})
	if overBudget {
		m.Runtime.KillAll()
		if !mainDone {
			return 0, fmt.Errorf("core: program exceeded the %v simulated-time budget (likely a synchronization hang)", m.Config.MaxSimulatedTime)
		}
		return 0, fmt.Errorf("core: post-main activity exceeded the simulated-time budget")
	}
	if !mainDone {
		m.Runtime.KillAll()
		return 0, fmt.Errorf("core: simulation ran out of events before main returned")
	}
	if !m.Checker.Ok() {
		return 0, fmt.Errorf("core: coherence invariant violated: %v", m.Checker.Violations[0])
	}
	return m.Engine.Now().Sub(start), nil
}

// L1Controllers exposes the chip's private L1 coherence controllers in node
// order (CPU cores first, then MTTOP cores). The memtest subsystem samples
// their cache states and pool accounting at quiesce points.
func (m *Machine) L1Controllers() []*coherence.L1Controller { return m.l1s }

// DirectoryBanks exposes the L2/directory banks in bank order, for the same
// verification uses as L1Controllers.
func (m *Machine) DirectoryBanks() []*coherence.DirectoryBank { return m.banks }

// Shutdown tears down any software threads that are still running (used by
// tests and by callers that abandon a machine mid-run). A machine built in an
// arena also hands its recyclable parts back here, after which the machine
// must not be used again; arena-less machines are unaffected and remain
// readable.
func (m *Machine) Shutdown() {
	m.Runtime.KillAll()
	a := m.arena
	if a == nil {
		return
	}
	m.arena = nil
	a.RecycleCohMsgs(m.msgs.DrainFreeList())
	a.RecycleNocMsgs(m.torus.DrainFreeList())
	for i := range m.arrays {
		arr := m.arrays[i]
		m.arrays[i] = nil
		a.RecycleArray(arr)
	}
	m.arrays = nil
	for i := range m.tables {
		t := m.tables[i]
		m.tables[i] = nil
		a.RecycleDirTable(t)
	}
	m.tables = nil
	a.RecycleChecker(m.Checker)
	a.RecycleEngine(m.Engine)
	a.RecyclePhysical(m.Phys)
}

// Now reports the machine's current simulated time.
func (m *Machine) Now() sim.Time { return m.Engine.Now() }

// DRAMAccesses reports the machine's off-chip access count (Figure 9's
// metric).
func (m *Machine) DRAMAccesses() uint64 { return m.DRAM.Accesses() }

// MemWriteUint32 functionally initializes process memory before (or between)
// simulated regions; the loader uses it to place workload inputs, standing in
// for data that a real run would have produced earlier.
func (m *Machine) MemWriteUint32(va mem.VAddr, v uint32) {
	m.Phys.WriteUint32(m.Process.TranslateFunctional(va), v)
}

// MemReadUint32 functionally reads process memory (used to check results).
func (m *Machine) MemReadUint32(va mem.VAddr) uint32 {
	return m.Phys.ReadUint32(m.Process.TranslateFunctional(va))
}

// MemWriteUint64 functionally writes a 64-bit value to process memory.
func (m *Machine) MemWriteUint64(va mem.VAddr, v uint64) {
	m.Phys.WriteUint64(m.Process.TranslateFunctional(va), v)
}

// MemReadUint64 functionally reads a 64-bit value from process memory.
func (m *Machine) MemReadUint64(va mem.VAddr) uint64 {
	return m.Phys.ReadUint64(m.Process.TranslateFunctional(va))
}

// MemWriteFloat64 functionally writes a float64 to process memory.
func (m *Machine) MemWriteFloat64(va mem.VAddr, v float64) {
	m.MemWriteUint64(va, math.Float64bits(v))
}

// MemReadFloat64 functionally reads a float64 from process memory.
func (m *Machine) MemReadFloat64(va mem.VAddr) float64 {
	return math.Float64frombits(m.MemReadUint64(va))
}

// Alloc reserves heap space functionally (before simulation) and returns its
// base; experiments use it to lay out inputs that the measured region then
// consumes.
func (m *Machine) Alloc(size uint64) mem.VAddr {
	return m.Process.Sbrk(size)
}

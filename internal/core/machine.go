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

// reservedFrames is how many page frames at the bottom of physical memory
// the kernel keeps for itself, as firmware and kernel images do.
const reservedFrames = 16

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
	mmus  []*vm.MMU
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
	// It owns the machine's threads. contexts is the pool of hardware
	// contexts the MTTOP cores share.
	gate     *exec.Gate
	contexts *mttop.ContextPool

	// arena, when non-nil, receives the engine, physical memory, tag arrays,
	// SWMR checker, directory tables, L1 controllers, MMUs, message
	// populations, op batches, threads, coroutines and MTTOP contexts back at
	// Shutdown so the worker's next machine reuses them.
	arena *simarena.Arena
}

// NewMachine builds and wires a CCSVM chip from the configuration. When the
// configuration carries an arena (Config.InArena), the engine, physical
// memory, cache tag arrays, SWMR checker, directory tables, L1 controllers,
// MMUs, message-pool populations, the gate's op batches, threads and
// coroutines and the MTTOP context pool come from it; reuse is
// observation-equivalent to fresh construction.
func NewMachine(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Machine{
		Config: cfg,
		Engine: cfg.arena.Engine(),
		arena:  cfg.arena,
		arrays: make([]*cache.Array, 0, cfg.NumCPUs+cfg.NumMTTOPs+cfg.L2Banks),
		l1s:    make([]*coherence.L1Controller, 0, cfg.NumCPUs+cfg.NumMTTOPs),
		mmus:   make([]*vm.MMU, 0, cfg.NumCPUs+cfg.NumMTTOPs),
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
	m.Kernel = kernelos.NewKernel(m.Phys, reservedFrames, cfg.KernelCosts)
	m.Process = m.Kernel.NewProcess()
	m.gate = exec.NewGate()
	// Pending thread activations must schedule before anything an event
	// handler schedules after completing them (see exec.Gate.Drain): this
	// keeps the event trace identical to the historical blocking handoff.
	m.gate.Bind(m.Engine)
	m.gate.SeedBatches(cfg.arena.TakeBatches())
	m.gate.SeedThreads(cfg.arena.TakeThreads())
	m.contexts = cfg.arena.ContextPool()
	m.Runtime = xthreads.NewRuntime(m.Process, m.Engine.Now, m.gate)

	// MIFD.
	m.MIFD = mifd.NewDevice(m.Engine, cfg.MIFD)
	m.MIFD.SetThreadFactory(m.Runtime.NewMTTOPThread)

	// CPU cores with their private L1s and MMUs.
	for i := 0; i < cfg.NumCPUs; i++ {
		name := fmt.Sprintf("cpu%d", i)
		l1cfg := cfg.CPUL1
		l1cfg.Name = name + ".l1"
		l1, mmu := m.l1AndMMU(noc.NodeID(i), mapper, coherence.L1Config{
			Cache:      m.array(l1cfg),
			HitLatency: cfg.CPUL1Hit,
			Protocol:   proto,
			Pool:       &m.msgs,
			Name:       name + ".l1",
		})
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
		l1, mmu := m.l1AndMMU(node, mapper, coherence.L1Config{
			Cache:      m.array(l1cfg),
			HitLatency: cfg.MTTOPL1Hit,
			Protocol:   proto,
			Pool:       &m.msgs,
			Name:       name + ".l1",
		})
		core := mttop.New(m.Engine, mttop.Config{
			Clock:       mttopClock,
			NumContexts: cfg.MTTOPContexts,
			IssueWidth:  cfg.MTTOPIssueWidth,
			Name:        name,
		}, l1, mmu, m.Phys, m.MIFD, m.contexts)
		m.MTTOPs = append(m.MTTOPs, core)
		m.MIFD.AttachUnits(core)
	}

	// TLB shootdowns initiated by a CPU flush every MTTOP TLB via the MIFD.
	m.Kernel.SetShootdownHook(m.MIFD.FlushAllTLBs)

	// CPU cores run with the process's address space loaded.
	for _, c := range m.CPUs {
		c.MMU().SetRoot(m.Process.Root())
	}
	// Drawn last: a build that panics leaves the parked coroutines in the
	// arena, whose owner ends them.
	m.gate.SeedCoroutines(cfg.arena.TakeCoroutines())
	return m
}

// array draws a tag array from the machine's arena (a fresh one without an
// arena) and records it for Shutdown to hand back.
func (m *Machine) array(cfg cache.Config) *cache.Array {
	arr := m.arena.Array(cfg)
	m.arrays = append(m.arrays, arr)
	return arr
}

// l1AndMMU draws a core's L1 controller and the MMU that walks through it
// from the machine's arena (fresh ones without an arena) and records them for
// Shutdown to hand back.
func (m *Machine) l1AndMMU(node noc.NodeID, banks coherence.BankMapper, cfg coherence.L1Config) (*coherence.L1Controller, *vm.MMU) {
	l1 := m.arena.L1Controller(m.Engine, node, m.torus, banks, cfg, m.Checker)
	mmu := m.arena.MMU(vm.TLBConfig{Entries: m.Config.TLBEntries}, l1, m.Phys)
	m.l1s = append(m.l1s, l1)
	m.mmus = append(m.mmus, mmu)
	return l1, mmu
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
// has quiesced. It returns the simulated time consumed. A drained run that
// leaves protocol messages in flight or double-released, or pooled engine
// events live, is an error: a handler leaked or double-freed a pooled object.
// A clean run hands its threads back to the gate, so a machine that runs many
// programs reuses them; a run that ends early kills its threads, which stay
// until Shutdown.
func (m *Machine) RunProgram(main xthreads.MainFunc) (sim.Duration, error) {
	start := m.Engine.Now()
	mainDone := false
	t := m.Runtime.NewCPUThread("main", main)
	m.CPUs[0].Run(t, func() { mainDone = true })
	// Drive the engine through the gate: thread activations and event
	// dispatch interleave in completion order (see exec.Gate), and the run
	// continues past main's return to drain remaining activity (MTTOP threads
	// main did not wait for, in-flight writebacks, etc.).
	overBudget, err := m.gate.DriveUntil(start.Add(m.Config.MaxSimulatedTime))
	if err != nil {
		m.gate.KillAll()
		return 0, fmt.Errorf("core: %w", err)
	}
	if overBudget {
		m.gate.KillAll()
		if !mainDone {
			return 0, fmt.Errorf("core: program exceeded the %v simulated-time budget (likely a synchronization hang)", m.Config.MaxSimulatedTime)
		}
		return 0, fmt.Errorf("core: post-main activity exceeded the simulated-time budget")
	}
	if !mainDone {
		m.gate.KillAll()
		return 0, fmt.Errorf("core: simulation ran out of events before main returned")
	}
	if !m.Checker.Ok() {
		return 0, fmt.Errorf("core: coherence invariant violated: %v", m.Checker.Violations[0])
	}
	if pool := coherence.SumPoolStats(m.l1s, m.banks); pool.InFlight() != 0 || pool.DoubleReleases != 0 {
		return 0, fmt.Errorf("core: drained run's protocol messages do not balance: %d allocated, %d released, %d released twice",
			pool.Gets, pool.Puts, pool.DoubleReleases)
	}
	if n := m.Engine.LiveEvents(); n != 0 {
		return 0, fmt.Errorf("core: drained run left %d pooled events live", n)
	}
	m.gate.RecycleThreads()
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
// arena also hands its recyclable parts back here, its parked coroutines
// included, after which the machine must not be used again; an arena-less
// machine ends its parked coroutines and remains readable.
func (m *Machine) Shutdown() {
	a := m.arena
	if a == nil {
		m.gate.KillAll()
		m.gate.StopCoroutines()
		return
	}
	m.arena = nil
	a.RecycleThreads(m.gate.DrainThreads())
	a.RecycleCoroutines(m.gate.DrainCoroutines())
	a.RecycleContextPool(m.contexts)
	// Parked last to first, so the next machine's node i draws this one's.
	for i := len(m.l1s) - 1; i >= 0; i-- {
		a.RecycleL1Controller(m.l1s[i])
		a.RecycleMMU(m.mmus[i])
	}
	a.RecycleCohMsgs(m.msgs.DrainFreeList())
	a.RecycleNocMsgs(m.torus.DrainFreeList())
	a.RecycleBatches(m.gate.DrainBatches())
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

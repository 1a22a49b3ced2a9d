// Package core assembles the paper's primary contribution: the CCSVM chip —
// CPU cores and MTTOP cores tightly coupled through cache-coherent shared
// virtual memory over a 2D torus, with a banked shared L2/directory, private
// TLBs and page-table walkers at every core, and the MIFD task-launch path —
// and runs xthreads programs on it.
package core

import (
	"fmt"

	"ccsvm/internal/cache"
	"ccsvm/internal/coherence"
	"ccsvm/internal/dram"
	"ccsvm/internal/kernelos"
	"ccsvm/internal/mem"
	"ccsvm/internal/mifd"
	"ccsvm/internal/sim"
	"ccsvm/internal/simarena"
)

// Config is the CCSVM system configuration. DefaultConfig reproduces the
// simulated system column of Table 2.
type Config struct {
	// NumCPUs is the number of CPU cores.
	NumCPUs int
	// NumMTTOPs is the number of MTTOP cores.
	NumMTTOPs int

	// CPUClockHz and MTTOPClockHz are the two clock domains.
	CPUClockHz   float64
	MTTOPClockHz float64
	// CPUCPI is the CPU's cycles per instruction (2.0 => max IPC 0.5).
	CPUCPI float64

	// MTTOPContexts is the number of hardware thread contexts per MTTOP core.
	MTTOPContexts int
	// MTTOPIssueWidth is the per-core issue width (simultaneous threads).
	MTTOPIssueWidth int

	// CPUL1 and MTTOPL1 are the private cache geometries.
	CPUL1   cache.Config
	MTTOPL1 cache.Config
	// CPUL1Hit and MTTOPL1Hit are the L1 hit latencies.
	CPUL1Hit   sim.Duration
	MTTOPL1Hit sim.Duration

	// L2Banks is the number of shared L2/directory banks.
	L2Banks int
	// L2BankBytes is the capacity of each bank.
	L2BankBytes int
	// L2Assoc is the L2 associativity.
	L2Assoc int
	// L2Latency is the L2/directory access latency.
	L2Latency sim.Duration

	// Coherence selects the coherence protocol variant the L1 controllers
	// and directory banks execute.
	Coherence CoherenceConfig

	// TLBEntries is the per-core TLB capacity.
	TLBEntries int

	// Torus configures the on-chip network; Width/Height of zero means "size
	// to the node count automatically".
	Torus struct {
		Width, Height int
		LinkBandwidth float64
	}

	// DRAM is the off-chip memory configuration.
	DRAM dram.Config
	// MIFD is the MTTOP interface device configuration.
	MIFD mifd.Config
	// KernelCosts are the OS service costs.
	KernelCosts kernelos.Costs
	// MaxSimulatedTime bounds a program run; exceeding it is reported as a
	// hang (a safety net for buggy workloads that spin forever).
	MaxSimulatedTime sim.Duration

	// arena, when set, supplies recycled machine parts to NewMachine and
	// receives them back at Shutdown. Unexported on purpose: it is execution
	// plumbing, not configuration — it must stay out of the canonical spec
	// encoding and the override namespace, and it never changes a Result.
	arena *simarena.Arena
}

// CoherenceConfig selects the coherence protocol the chip's memory system
// runs. The protocol is a named set of transition tables registered in
// internal/coherence; see coherence.ProtocolNames for the choices.
type CoherenceConfig struct {
	// Protocol names the directory protocol: "moesi" (the Table 2 baseline
	// with owner-forwarding) or "mesi" (no Owned state; dirty lines are
	// written back to the directory before a requestor is served). Empty
	// selects MOESI, keeping zero-value configurations at the paper's
	// baseline behavior.
	Protocol string
}

// InArena returns the configuration with machine-part recycling through the
// given arena (nil means build everything fresh). Sweep workers give each of
// their machines the same arena; see internal/simarena.
func (c Config) InArena(a *simarena.Arena) Config {
	c.arena = a
	return c
}

// DefaultConfig returns the Table 2 CCSVM system: 4 in-order x86 CPU cores at
// 2.9 GHz with max IPC 0.5, 10 MTTOP cores at 600 MHz with 128 thread
// contexts and 8-wide issue (80 ops/cycle chip-wide), 64 KB / 16 KB 4-way
// write-back L1s, a 4 MB inclusive shared L2 in 4 banks with the embedded
// MOESI directory, 64-entry TLBs, a 2D torus with 12 GB/s links, and 2 GB of
// DRAM at 100 ns.
func DefaultConfig() Config {
	cfg := Config{
		NumCPUs:         4,
		NumMTTOPs:       10,
		CPUClockHz:      2.9e9,
		MTTOPClockHz:    600e6,
		CPUCPI:          2.0,
		MTTOPContexts:   128,
		MTTOPIssueWidth: 8,
		CPUL1:           cache.Config{SizeBytes: 64 * 1024, Assoc: 4},
		MTTOPL1:         cache.Config{SizeBytes: 16 * 1024, Assoc: 4},
		L2Banks:         4,
		L2BankBytes:     1 << 20,
		L2Assoc:         16,
		Coherence:       CoherenceConfig{Protocol: "moesi"},
		TLBEntries:      64,
		DRAM:            dram.DefaultCCSVMConfig(),
		MIFD:            mifd.DefaultConfig(),
		KernelCosts:     kernelos.DefaultCosts(),
	}
	cpuClock := sim.NewClock("cpu", cfg.CPUClockHz)
	mttopClock := sim.NewClock("mttop", cfg.MTTOPClockHz)
	// Table 2: 2-cycle CPU L1 hits, 1-cycle MTTOP L1 hits, and an L2 that is
	// 10 CPU cycles / 2 MTTOP cycles away (~3.4 ns either way).
	cfg.CPUL1Hit = cpuClock.Cycles(2)
	cfg.MTTOPL1Hit = mttopClock.Cycles(1)
	cfg.L2Latency = cpuClock.Cycles(10)
	cfg.Torus.LinkBandwidth = 12e9
	cfg.MaxSimulatedTime = 20 * sim.Second
	return cfg
}

// SmallConfig returns a scaled-down chip (2 CPU cores, 4 MTTOP cores with 32
// contexts each) that unit and integration tests use to keep host runtimes
// short while exercising every mechanism.
func SmallConfig() Config {
	cfg := DefaultConfig()
	cfg.NumCPUs = 2
	cfg.NumMTTOPs = 4
	cfg.MTTOPContexts = 32
	cfg.MTTOPL1 = cache.Config{SizeBytes: 8 * 1024, Assoc: 4}
	cfg.CPUL1 = cache.Config{SizeBytes: 16 * 1024, Assoc: 4}
	cfg.L2Banks = 2
	cfg.L2BankBytes = 256 * 1024
	return cfg
}

// TotalMTTOPThreadContexts reports the chip-wide hardware thread capacity.
func (c Config) TotalMTTOPThreadContexts() int { return c.NumMTTOPs * c.MTTOPContexts }

// PeakMTTOPOpsPerCycle reports the chip-wide peak MTTOP throughput
// (80 operations per cycle for the Table 2 configuration).
func (c Config) PeakMTTOPOpsPerCycle() int { return c.NumMTTOPs * c.MTTOPIssueWidth }

// Validate checks the configuration for structural problems.
func (c Config) Validate() error {
	checks := []struct {
		ok   bool
		name string
	}{
		{c.NumCPUs > 0, "NumCPUs"},
		{c.NumMTTOPs > 0, "NumMTTOPs"},
		{c.CPUClockHz > 0, "CPUClockHz"},
		{c.MTTOPClockHz > 0, "MTTOPClockHz"},
		{c.CPUCPI > 0, "CPUCPI"},
		{c.L2Banks > 0, "L2Banks"},
		{c.L2BankBytes > 0, "L2BankBytes"},
		{c.CPUL1.SizeBytes > 0, "CPUL1.SizeBytes"},
		{c.MTTOPL1.SizeBytes > 0, "MTTOPL1.SizeBytes"},
		{c.MTTOPContexts > 0, "MTTOPContexts"},
		{c.MTTOPIssueWidth > 0, "MTTOPIssueWidth"},
		{c.TLBEntries > 0, "TLBEntries"},
		{c.DRAM.SizeBytes > 0, "DRAM.SizeBytes"},
		{c.CPUL1.Assoc > 0, "CPUL1.Assoc"},
		{c.MTTOPL1.Assoc > 0, "MTTOPL1.Assoc"},
		{c.L2Assoc > 0, "L2Assoc"},
		// Negative latencies would schedule events in the past (an engine
		// panic); zero is allowed — an idealized structure is a legitimate
		// what-if sweep point.
		{c.CPUL1Hit >= 0, "CPUL1Hit"},
		{c.MTTOPL1Hit >= 0, "MTTOPL1Hit"},
		{c.L2Latency >= 0, "L2Latency"},
		{c.DRAM.Latency >= 0, "DRAM.Latency"},
		{c.DRAM.Bandwidth >= 0, "DRAM.Bandwidth"},
		{c.Torus.Width >= 0, "Torus.Width"},
		{c.Torus.Height >= 0, "Torus.Height"},
		{c.Torus.LinkBandwidth >= 0, "Torus.LinkBandwidth"},
		{c.MIFD.DispatchLatency >= 0, "MIFD.DispatchLatency"},
		{c.MIFD.PerWarpLatency >= 0, "MIFD.PerWarpLatency"},
		{c.MIFD.WarpSize > 0, "MIFD.WarpSize"},
		{c.KernelCosts.PageFaultInstrs >= 0, "KernelCosts.PageFaultInstrs"},
		{c.KernelCosts.ShootdownInstrs >= 0, "KernelCosts.ShootdownInstrs"},
		{c.KernelCosts.SyscallInstrs >= 0, "KernelCosts.SyscallInstrs"},
		{c.MaxSimulatedTime > 0, "MaxSimulatedTime"},
	}
	for _, chk := range checks {
		if !chk.ok {
			return &ConfigError{Field: chk.name}
		}
	}
	// Each tag array needs whole sets of lines, or building it panics.
	for _, arr := range []struct {
		name string
		cfg  cache.Config
	}{
		{"CPUL1", c.CPUL1},
		{"MTTOPL1", c.MTTOPL1},
		{"L2BankBytes/L2Assoc", cache.Config{SizeBytes: c.L2BankBytes, Assoc: c.L2Assoc}},
	} {
		if err := arr.cfg.CheckGeometry(); err != nil {
			return &ConfigError{Field: fmt.Sprintf("%s (%v)", arr.name, err)}
		}
	}
	// The process's root page table takes the first frame above the
	// kernel's reserved ones when the machine is built.
	if c.DRAM.SizeBytes/mem.PageSize <= reservedFrames {
		return &ConfigError{Field: fmt.Sprintf("DRAM.SizeBytes (%d bytes hold no page frame above the kernel's %d reserved ones)",
			c.DRAM.SizeBytes, reservedFrames)}
	}
	// The protocol must be registered (empty means MOESI); an unknown name
	// would otherwise only surface as a panic deep inside NewMachine.
	if _, err := coherence.LookupProtocol(c.Coherence.Protocol); err != nil {
		return &ConfigError{Field: fmt.Sprintf("Coherence.Protocol (%v)", err)}
	}
	// When both torus dimensions are given explicitly, the grid must hold
	// every node, or placement would panic inside NewMachine. (With one or
	// both dimensions zero, NewMachine derives the rest from the node
	// count, which always fits.)
	// The directory's sharer sets and the SWMR checker's holder sets have one
	// bit per L1.
	if l1s := c.NumCPUs + c.NumMTTOPs; l1s > coherence.MaxL1s {
		return &ConfigError{Field: fmt.Sprintf("NumCPUs+NumMTTOPs (%d L1s, at most %d)", l1s, coherence.MaxL1s)}
	}
	w, h := c.Torus.Width, c.Torus.Height
	if w > 0 && h > 0 && w*h < c.NumCPUs+c.NumMTTOPs+c.L2Banks {
		return &ConfigError{Field: fmt.Sprintf("Torus.Width/Height (%dx%d grid cannot hold %d nodes)",
			w, h, c.NumCPUs+c.NumMTTOPs+c.L2Banks)}
	}
	return nil
}

// ConfigError reports an invalid configuration field.
type ConfigError struct{ Field string }

// Error implements error.
func (e *ConfigError) Error() string { return "core: invalid configuration field " + e.Field }

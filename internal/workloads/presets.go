package workloads

import (
	"fmt"
	"sort"
	"sync"

	"ccsvm/internal/apu"
	"ccsvm/internal/core"
	"ccsvm/internal/sim"
)

// MachineKind names one of the two simulated chips a preset configures. The
// ccsvm machine runs only the ccsvm system; the apu machine runs the cpu,
// opencl, and pthreads systems.
type MachineKind string

// The two machines of the paper's comparison.
const (
	MachineCCSVM MachineKind = "ccsvm"
	MachineAPU   MachineKind = "apu"
)

// Preset is a named, documented variant of one machine's configuration —
// the unit of design-space exploration. A preset fixes the chip; the system
// kind chosen at run time fixes the programming model on that chip.
type Preset struct {
	// Name is the registry key ("ccsvm-base", "apu-fast-driver", ...).
	Name string
	// Description is a one-line summary for -list output.
	Description string
	// Machine selects which configuration field is meaningful.
	Machine MachineKind
	// CCSVM is the chip configuration when Machine is MachineCCSVM.
	CCSVM core.Config
	// APU is the chip configuration when Machine is MachineAPU.
	APU apu.Config
}

// Kinds lists the system kinds that can run on the preset's machine.
func (p Preset) Kinds() []SystemKind {
	if p.Machine == MachineCCSVM {
		return []SystemKind{SystemCCSVM}
	}
	return []SystemKind{SystemCPU, SystemOpenCL, SystemPthreads}
}

// DefaultKind is the first runnable kind — what a CLI uses when the caller
// names a preset but no system.
func (p Preset) DefaultKind() SystemKind { return p.Kinds()[0] }

// System builds a runnable System of the given kind from the preset's
// configuration. A kind that runs on the other machine returns an error
// wrapping ErrMachineMismatch.
func (p Preset) System(kind SystemKind) (System, error) {
	switch {
	case p.Machine == MachineCCSVM && kind == SystemCCSVM:
		return CCSVMSystem(p.CCSVM), nil
	case p.Machine == MachineAPU && kind == SystemCPU:
		return CPUSystem(p.APU), nil
	case p.Machine == MachineAPU && kind == SystemOpenCL:
		return OpenCLSystem(p.APU), nil
	case p.Machine == MachineAPU && kind == SystemPthreads:
		return PthreadsSystem(p.APU), nil
	}
	return System{}, fmt.Errorf("preset %s configures the %s machine, system %s runs on another: %w",
		p.Name, p.Machine, kind, ErrMachineMismatch)
}

var presetRegistry = struct {
	mu     sync.RWMutex
	byName map[string]Preset
}{byName: make(map[string]Preset)}

// RegisterPreset adds a preset to the registry. Registering an unnamed
// preset, an unknown machine, or a duplicate name panics: all are
// programming errors in an init function.
func RegisterPreset(p Preset) {
	if p.Name == "" || (p.Machine != MachineCCSVM && p.Machine != MachineAPU) {
		panic(fmt.Sprintf("workloads: invalid preset registration %+v", p))
	}
	presetRegistry.mu.Lock()
	defer presetRegistry.mu.Unlock()
	if _, dup := presetRegistry.byName[p.Name]; dup {
		panic(fmt.Sprintf("workloads: duplicate preset registration of %q", p.Name))
	}
	presetRegistry.byName[p.Name] = p
}

// LookupPreset finds a registered preset by name. Presets are returned by
// value: mutating the result never affects the registry.
func LookupPreset(name string) (Preset, bool) {
	presetRegistry.mu.RLock()
	defer presetRegistry.mu.RUnlock()
	p, ok := presetRegistry.byName[name]
	return p, ok
}

// Presets returns every registered preset sorted by name.
func Presets() []Preset {
	presetRegistry.mu.RLock()
	defer presetRegistry.mu.RUnlock()
	out := make([]Preset, 0, len(presetRegistry.byName))
	//ccsvm:orderinvariant // sorted by unique name below
	for _, p := range presetRegistry.byName {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// The built-in presets: the two Table 2 baselines plus the single-axis
// variants the paper's methodology invites (wider MTTOP, smaller caches,
// slower memory, a faster OpenCL driver, full VLIW packing).
func init() {
	RegisterPreset(Preset{
		Name:        "ccsvm-base",
		Description: "Table 2 CCSVM chip: 4 CPUs + 10 MTTOPs, 4 MB shared L2, 2D torus",
		Machine:     MachineCCSVM,
		CCSVM:       core.DefaultConfig(),
	})
	RegisterPreset(Preset{
		Name:        "ccsvm-wide",
		Description: "CCSVM with 2x MTTOP issue lanes (16-wide, 160 ops/cycle chip-wide)",
		Machine:     MachineCCSVM,
		CCSVM: func() core.Config {
			c := core.DefaultConfig()
			c.MTTOPIssueWidth *= 2
			return c
		}(),
	})
	RegisterPreset(Preset{
		Name:        "ccsvm-base-mesi",
		Description: "Table 2 CCSVM chip running MESI (no Owned state, no owner-forwarding)",
		Machine:     MachineCCSVM,
		CCSVM: func() core.Config {
			c := core.DefaultConfig()
			c.Coherence.Protocol = "mesi"
			return c
		}(),
	})
	RegisterPreset(Preset{
		Name:        "ccsvm-small-cache",
		Description: "CCSVM with half-size L1s and a 1 MB shared L2",
		Machine:     MachineCCSVM,
		CCSVM: func() core.Config {
			c := core.DefaultConfig()
			c.CPUL1.SizeBytes /= 2
			c.MTTOPL1.SizeBytes /= 2
			c.L2BankBytes /= 4
			return c
		}(),
	})
	RegisterPreset(Preset{
		Name:        "ccsvm-small",
		Description: "scaled-down CCSVM chip (2 CPUs + 4 MTTOPs) for fast runs and tests",
		Machine:     MachineCCSVM,
		CCSVM:       core.SmallConfig(),
	})
	RegisterPreset(Preset{
		Name:        "ccsvm-slow-dram",
		Description: "CCSVM with 200 ns DRAM (2x Table 2 latency)",
		Machine:     MachineCCSVM,
		CCSVM: func() core.Config {
			c := core.DefaultConfig()
			c.DRAM.Latency = 200 * sim.Nanosecond
			return c
		}(),
	})
	RegisterPreset(Preset{
		Name:        "apu-base",
		Description: "Table 2 Llano-like APU: 4 OoO CPUs + 5x16 VLIW GPU, OpenCL driver",
		Machine:     MachineAPU,
		APU:         apu.DefaultConfig(),
	})
	RegisterPreset(Preset{
		Name:        "apu-fast-driver",
		Description: "APU with 10x cheaper OpenCL driver/runtime overheads",
		Machine:     MachineAPU,
		APU: func() apu.Config {
			c := apu.DefaultConfig()
			c.OpenCL.PlatformInit /= 10
			c.OpenCL.ProgramBuild /= 10
			c.OpenCL.BufferCreate /= 10
			c.OpenCL.MapBuffer /= 10
			c.OpenCL.UnmapBuffer /= 10
			c.OpenCL.SetKernelArg /= 10
			c.OpenCL.KernelLaunch /= 10
			c.OpenCL.FinishOverhead /= 10
			return c
		}(),
	})
	RegisterPreset(Preset{
		Name:        "apu-vliw4",
		Description: "APU at peak VLIW packing (4 ops/instr, 4x the CCSVM MTTOP peak)",
		Machine:     MachineAPU,
		APU: func() apu.Config {
			c := apu.DefaultConfig()
			c.GPUVLIWOpsPerInstr = 4
			return c
		}(),
	})
}

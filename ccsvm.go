package ccsvm

import (
	"fmt"

	"ccsvm/internal/apu"
	"ccsvm/internal/coherence"
	"ccsvm/internal/core"
	"ccsvm/internal/simarena"
	"ccsvm/internal/workloads"
)

// The facade re-exports the simulator's workload/system model so that every
// consumer — cmd/ccsvm-sim, cmd/paper-figs, the benchmarks, the examples, and
// library users — resolves (workload, system) pairs through one registry
// instead of hand-enumerating them. Importing this package is enough to
// populate the registry: the five workload files in internal/workloads
// register themselves at init time.
type (
	// System is one runnable machine model (kind + chip configuration).
	System = workloads.System
	// SystemKind names a machine model variant.
	SystemKind = workloads.SystemKind
	// Params is the parameter schema every workload draws from.
	Params = workloads.Params
	// Workload is a registered benchmark with per-system implementations.
	Workload = workloads.Workload
	// RunFunc is one workload implementation for one system kind.
	RunFunc = workloads.RunFunc
	// Result is the outcome of one run: measured simulated time, off-chip
	// traffic, and whether the functional output was verified.
	Result = workloads.Result
	// Arena recycles machine parts (event engine, physical memory, cache tag
	// arrays, SWMR checker, directory tables, L1 controllers, MMUs, the GPU
	// memory path, message pools, software threads, their coroutines and
	// MTTOP contexts) across the runs of one worker; set System.Arena to use
	// it. The arena keeps the coroutines of finished threads parked, as
	// live goroutines, for the next machine: a coroutine outlives its
	// thread and its Run call, but not the arena's owner. A Runner keeps
	// its workers' arenas itself, and a GC cleanup ends their coroutines
	// once the Runner is dropped; whoever sets System.Arena calls
	// StopCoroutines once it is done with the arena. See internal/simarena
	// for the reuse contract.
	Arena = simarena.Arena
)

// NewArena returns an empty machine-part arena for a single worker's runs.
// Its owner ends the arena's parked coroutines with Arena.StopCoroutines
// once it is done with the arena, typically deferred; a forgotten call
// leaks at most one machine's peak of live threads as parked goroutines.
// (A Runner's own arenas need no call: a GC cleanup ends their coroutines
// once the Runner is dropped.)
func NewArena() *Arena { return simarena.New() }

// The four systems of the paper's evaluation.
const (
	SystemCCSVM    = workloads.SystemCCSVM
	SystemCPU      = workloads.SystemCPU
	SystemOpenCL   = workloads.SystemOpenCL
	SystemPthreads = workloads.SystemPthreads
)

// ErrUnsupportedPair is returned (wrapped) by Workload.Run and Runner.Run for
// a (workload, system) pair with no implementation.
var ErrUnsupportedPair = workloads.ErrUnsupportedPair

// Design-space exploration: named machine presets and dotted-path parameter
// overrides (see ARCHITECTURE.md, "Sweeping the design space").
type (
	// Preset is a named, documented variant of one machine's configuration.
	Preset = workloads.Preset
	// MachineKind names one of the two simulated chips ("ccsvm" or "apu").
	MachineKind = workloads.MachineKind
	// OverrideError reports a failed parameter override with its dotted
	// path, offending value, and a sentinel classifying the failure.
	OverrideError = workloads.OverrideError
)

// The two machines of the paper's comparison.
const (
	MachineCCSVM = workloads.MachineCCSVM
	MachineAPU   = workloads.MachineAPU
)

// Typed failures of the override layer, matched with errors.Is.
var (
	// ErrUnknownPath reports a dotted path that names no configuration field.
	ErrUnknownPath = workloads.ErrUnknownPath
	// ErrBadValue reports a value that does not parse as the field's type.
	ErrBadValue = workloads.ErrBadValue
	// ErrOutOfRange reports a value that leaves the configuration invalid.
	ErrOutOfRange = workloads.ErrOutOfRange
	// ErrMachineMismatch reports a preset or override applied to a system
	// that runs on the other machine.
	ErrMachineMismatch = workloads.ErrMachineMismatch
)

// RegisterPreset adds a machine preset to the registry. The built-in presets
// register themselves; external packages may add more before running sweeps.
func RegisterPreset(p Preset) { workloads.RegisterPreset(p) }

// LookupPreset finds a registered preset by name; the result is a copy, so
// mutating it never affects the registry.
func LookupPreset(name string) (Preset, bool) { return workloads.LookupPreset(name) }

// Presets returns every registered machine preset sorted by name.
func Presets() []Preset { return workloads.Presets() }

// Protocols lists the registered coherence protocol names in registry order —
// the legal values of the ccsvm.Coherence.Protocol override path and the
// memtest/stress -protocol flag.
func Protocols() []string { return coherence.ProtocolNames() }

// LookupPresetSystem builds a runnable System of the given kind from the
// named preset — the one-call path the CLIs use. Unknown presets are a plain
// error; a kind on the wrong machine wraps ErrMachineMismatch.
func LookupPresetSystem(name string, kind SystemKind) (System, error) {
	p, ok := workloads.LookupPreset(name)
	if !ok {
		return System{}, fmt.Errorf("unknown preset %q (see Presets or ccsvm-sim -list)", name)
	}
	return p.System(kind)
}

// Override assigns one configuration field of the system by dotted path
// ("ccsvm.MTTOPIssueWidth", "apu.OpenCL.KernelLaunch"). Failures are typed:
// ErrUnknownPath, ErrBadValue, ErrOutOfRange, or ErrMachineMismatch.
func Override(sys *System, path, value string) error { return workloads.Set(sys, path, value) }

// ApplyOverrides applies "path=value" assignments in order, stopping at the
// first failure.
func ApplyOverrides(sys *System, assignments []string) error {
	return workloads.Apply(sys, assignments)
}

// OverridePaths enumerates every settable dotted path of a machine's
// configuration, suffixed with its type.
func OverridePaths(machine MachineKind) []string { return workloads.OverridePaths(machine) }

// Register adds a workload to the registry. The built-in benchmarks register
// themselves; external packages may register additional workloads before
// running sweeps.
func Register(w Workload) { workloads.Register(w) }

// Lookup finds a registered workload by name.
func Lookup(name string) (*Workload, bool) { return workloads.Lookup(name) }

// Workloads returns every registered workload sorted by name.
func Workloads() []*Workload { return workloads.All() }

// Systems lists every machine-model kind in presentation order.
func Systems() []SystemKind { return workloads.SystemKinds() }

// NewSystem builds the named system with its Table 2 default configuration.
func NewSystem(kind SystemKind) (System, error) { return workloads.NewSystem(kind) }

// MustSystem is NewSystem for statically-known kinds; it panics on an unknown
// kind.
func MustSystem(kind SystemKind) System {
	sys, err := NewSystem(kind)
	if err != nil {
		panic(err)
	}
	return sys
}

// CCSVMSystem builds the tightly-coupled CCSVM machine from a core config.
func CCSVMSystem(cfg core.Config) System { return workloads.CCSVMSystem(cfg) }

// CPUSystem builds the one-core CPU baseline from an APU config.
func CPUSystem(cfg apu.Config) System { return workloads.CPUSystem(cfg) }

// OpenCLSystem builds the GPU-through-OpenCL machine from an APU config.
func OpenCLSystem(cfg apu.Config) System { return workloads.OpenCLSystem(cfg) }

// PthreadsSystem builds the four-core pthreads machine from an APU config.
func PthreadsSystem(cfg apu.Config) System { return workloads.PthreadsSystem(cfg) }

// DefaultParams returns a small, fast default problem.
func DefaultParams() Params { return workloads.DefaultParams() }

// Pairs enumerates every runnable (workload, system) pair as RunSpecs with
// default systems and the given params — a convenient seed for smoke-test
// sweeps over the whole registry.
func Pairs(p Params) []RunSpec {
	var specs []RunSpec
	for _, w := range Workloads() {
		for _, kind := range w.SystemKinds() {
			specs = append(specs, RunSpec{
				Workload: w.Name,
				System:   MustSystem(kind),
				Params:   p,
			})
		}
	}
	return specs
}

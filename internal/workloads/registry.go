package workloads

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"ccsvm/internal/apu"
	"ccsvm/internal/core"
	"ccsvm/internal/simarena"
)

// ErrUnsupportedPair is returned (wrapped) when a workload is asked to run on
// a system it has no implementation for — e.g. sparse matrix multiply on the
// OpenCL machine, which the paper could not express without shared virtual
// memory. Callers detect it with errors.Is.
var ErrUnsupportedPair = errors.New("workload has no implementation for system")

// SystemKind names one of the machine models under comparison.
type SystemKind string

// The four systems of the paper's evaluation.
const (
	// SystemCCSVM is the proposed chip: CPU + MTTOP tightly coupled through
	// cache-coherent shared virtual memory, programmed with xthreads.
	SystemCCSVM SystemKind = "ccsvm"
	// SystemCPU is one APU CPU core running the single-threaded baseline.
	SystemCPU SystemKind = "cpu"
	// SystemOpenCL is the loosely-coupled APU's GPU driven through the
	// OpenCL stack (buffer staging, kernel JIT, DMA).
	SystemOpenCL SystemKind = "opencl"
	// SystemPthreads is the APU's four CPU cores running a pthreads version.
	SystemPthreads SystemKind = "pthreads"
)

// SystemKinds lists every machine model, in a fixed presentation order.
func SystemKinds() []SystemKind {
	return []SystemKind{SystemCCSVM, SystemCPU, SystemOpenCL, SystemPthreads}
}

// System is a runnable machine model: a kind plus the configuration of the
// underlying simulated chip. CCSVM systems carry a core.Config; the cpu,
// opencl, and pthreads variants all run on the APU machine and carry an
// apu.Config.
type System struct {
	Kind SystemKind
	// CCSVM configures the CCSVM chip; meaningful only when Kind is
	// SystemCCSVM.
	CCSVM core.Config
	// APU configures the APU baseline; meaningful for every other kind.
	APU apu.Config
	// Arena, when set, recycles machine parts (event engine, physical
	// memory, message pools) across the runs this System value is used for.
	// It is execution plumbing, not configuration: Results are bit-identical
	// with or without it, it does not feed the spec hash, and it must not be
	// shared between concurrent runs — the sweep Runner gives each of its
	// workers one.
	Arena *simarena.Arena
}

// CCSVMSystem builds the tightly-coupled CCSVM machine from a core config.
func CCSVMSystem(cfg core.Config) System {
	return System{Kind: SystemCCSVM, CCSVM: cfg}
}

// CPUSystem builds the one-core CPU baseline from an APU config.
func CPUSystem(cfg apu.Config) System {
	return System{Kind: SystemCPU, APU: cfg}
}

// OpenCLSystem builds the loosely-coupled GPU-through-OpenCL machine from an
// APU config.
func OpenCLSystem(cfg apu.Config) System {
	return System{Kind: SystemOpenCL, APU: cfg}
}

// PthreadsSystem builds the four-core pthreads machine from an APU config.
func PthreadsSystem(cfg apu.Config) System {
	return System{Kind: SystemPthreads, APU: cfg}
}

// NewSystem builds the named system with its paper (Table 2) default
// configuration.
func NewSystem(kind SystemKind) (System, error) {
	switch kind {
	case SystemCCSVM:
		return CCSVMSystem(core.DefaultConfig()), nil
	case SystemCPU:
		return CPUSystem(apu.DefaultConfig()), nil
	case SystemOpenCL:
		return OpenCLSystem(apu.DefaultConfig()), nil
	case SystemPthreads:
		return PthreadsSystem(apu.DefaultConfig()), nil
	default:
		return System{}, fmt.Errorf("unknown system %q (have %v)", kind, SystemKinds())
	}
}

// Params is the parameter schema shared by every workload. A workload reads
// the fields that apply to it and ignores the rest.
type Params struct {
	// N is the problem size: matrix dimension, vertex count, body count, or
	// vector length.
	N int
	// Density is the non-zero fraction for the sparse workload.
	Density float64
	// Seed drives the deterministic input generator.
	Seed int64
	// IncludeInit includes OpenCL platform init and kernel JIT in the
	// measured region (the "full" series of Figures 5 and 6); it only
	// affects SystemOpenCL runs.
	IncludeInit bool
}

// DefaultParams returns a small, fast default problem.
func DefaultParams() Params { return Params{N: 32, Density: 0.01, Seed: 42} }

// RunFunc runs a workload on one system with the given parameters.
type RunFunc func(sys System, p Params) (Result, error)

// Workload is one registered benchmark: a name, documentation of which
// parameters it reads, and one RunFunc per system it supports.
type Workload struct {
	// Name is the registry key ("matmul", "apsp", ...).
	Name string
	// Description is a one-line summary for -list output.
	Description string
	// UsesDensity and UsesIncludeInit document which optional Params fields
	// the workload reads.
	UsesDensity     bool
	UsesIncludeInit bool
	// Runners maps each supported system kind to its implementation.
	Runners map[SystemKind]RunFunc
}

// Supports reports whether the workload has an implementation for the kind.
func (w *Workload) Supports(kind SystemKind) bool {
	_, ok := w.Runners[kind]
	return ok
}

// SystemKinds lists the kinds the workload supports, in the fixed
// presentation order of SystemKinds().
func (w *Workload) SystemKinds() []SystemKind {
	var out []SystemKind
	for _, k := range SystemKinds() {
		if w.Supports(k) {
			out = append(out, k)
		}
	}
	return out
}

// Run executes the workload on the system. Unsupported pairs return an error
// wrapping ErrUnsupportedPair; out-of-range parameters return a plain error
// instead of panicking inside the simulator.
func (w *Workload) Run(sys System, p Params) (Result, error) {
	fn, ok := w.Runners[sys.Kind]
	if !ok {
		return Result{}, fmt.Errorf("%s on %s: %w (supported: %v)",
			w.Name, sys.Kind, ErrUnsupportedPair, w.SystemKinds())
	}
	if p.N < 0 {
		return Result{}, fmt.Errorf("%s: problem size must be non-negative, got n=%d", w.Name, p.N)
	}
	if w.UsesDensity && (p.Density < 0 || p.Density > 1) {
		return Result{}, fmt.Errorf("%s: density must be in [0,1], got %v", w.Name, p.Density)
	}
	// Thread the System's arena into the machine configurations here, in one
	// place, so the per-workload runners and their exported functions stay
	// arena-oblivious.
	if sys.Arena != nil {
		sys.CCSVM = sys.CCSVM.InArena(sys.Arena)
		sys.APU = sys.APU.InArena(sys.Arena)
	}
	return fn(sys, p)
}

var registry = struct {
	mu     sync.RWMutex
	byName map[string]*Workload
}{byName: make(map[string]*Workload)}

// Register adds a workload to the package registry. Registering a duplicate
// name or a workload with no runners panics: both are programming errors in
// an init function.
func Register(w Workload) {
	if w.Name == "" || len(w.Runners) == 0 {
		panic(fmt.Sprintf("workloads: invalid registration %+v", w))
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.byName[w.Name]; dup {
		panic(fmt.Sprintf("workloads: duplicate registration of %q", w.Name))
	}
	registry.byName[w.Name] = &w
}

// Lookup finds a registered workload by name.
func Lookup(name string) (*Workload, bool) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	w, ok := registry.byName[name]
	return w, ok
}

// All returns every registered workload sorted by name.
func All() []*Workload {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	out := make([]*Workload, 0, len(registry.byName))
	//ccsvm:orderinvariant // sorted by unique name below
	for _, w := range registry.byName {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

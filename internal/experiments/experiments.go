// Package experiments regenerates every table and figure of the paper's
// evaluation section: Table 2 and Figures 3/4 through 9. Each figure
// declares its sweep as a slice of ccsvm.RunSpec, executes it through the
// facade's Runner — optionally fanning out across Options.Parallel workers;
// every simulation is an independent engine, so the results are bit-identical
// at any parallelism — and shapes the results into a text table with the same
// rows/series the paper reports. cmd/paper-figs prints the tables. The
// package also declares PaperSeries, one point of each figure per system,
// which the benchmarks measure.
package experiments

import (
	"fmt"

	"ccsvm"
	"ccsvm/internal/apu"
	"ccsvm/internal/core"
	"ccsvm/internal/stats"
)

// Options selects the sweep sizes and execution fan-out. Quick (the default)
// keeps every sweep small enough to regenerate in a couple of minutes of host
// time; Full uses larger problem sizes that take correspondingly longer but
// show the crossovers more clearly.
type Options struct {
	Full bool
	Seed int64
	// Parallel is the Runner worker-pool size; 0 means GOMAXPROCS.
	Parallel int

	// runner, when set, executes the sweeps instead of a fresh Runner per
	// sweep. All sets one, so each sweep's workers draw the machine parts
	// the earlier sweeps' machines left in the Runner's arenas.
	runner *ccsvm.Runner
}

// DefaultOptions returns the quick sweep.
func DefaultOptions() Options { return Options{Full: false, Seed: 42, Parallel: 1} }

// Series is one benchmark point of the evaluation: a (workload, system, size)
// point of one figure, named after it. The JSON tags are the series fields of
// cmd/ccsvm-bench's BENCH_*.json files.
type Series struct {
	Name     string           `json:"name"`
	Workload string           `json:"workload"`
	System   ccsvm.SystemKind `json:"system"`
	N        int              `json:"n"`
	Density  float64          `json:"density,omitempty"`
	Init     bool             `json:"include_init,omitempty"`
}

// Params returns the series' run parameters at the given seed.
func (s Series) Params(seed int64) ccsvm.Params {
	return ccsvm.Params{N: s.N, Density: s.Density, Seed: seed, IncludeInit: s.Init}
}

// PaperSeries are the paper series: one point of every figure's sweep per
// system, small enough for a benchmark iteration. The go test benchmarks and
// cmd/ccsvm-bench measure exactly these.
var PaperSeries = []Series{
	{Name: "fig5_matmul_ccsvm", Workload: "matmul", System: ccsvm.SystemCCSVM, N: 32},
	{Name: "fig5_matmul_apu_opencl", Workload: "matmul", System: ccsvm.SystemOpenCL, N: 32},
	{Name: "fig5_matmul_apu_cpu", Workload: "matmul", System: ccsvm.SystemCPU, N: 32},
	{Name: "fig6_apsp_ccsvm", Workload: "apsp", System: ccsvm.SystemCCSVM, N: 20},
	{Name: "fig6_apsp_apu_opencl", Workload: "apsp", System: ccsvm.SystemOpenCL, N: 20},
	{Name: "fig6_apsp_apu_cpu", Workload: "apsp", System: ccsvm.SystemCPU, N: 20},
	{Name: "fig7_barneshut_ccsvm", Workload: "barneshut", System: ccsvm.SystemCCSVM, N: 96},
	{Name: "fig7_barneshut_apu_cpu", Workload: "barneshut", System: ccsvm.SystemCPU, N: 96},
	{Name: "fig7_barneshut_apu_pthreads", Workload: "barneshut", System: ccsvm.SystemPthreads, N: 96},
	{Name: "fig8_sparse_size_ccsvm", Workload: "sparse", System: ccsvm.SystemCCSVM, N: 48, Density: 0.02},
	{Name: "fig8_sparse_size_apu_cpu", Workload: "sparse", System: ccsvm.SystemCPU, N: 48, Density: 0.02},
	{Name: "fig8_sparse_density_ccsvm", Workload: "sparse", System: ccsvm.SystemCCSVM, N: 48, Density: 0.06},
	{Name: "code_vectoradd_xthreads", Workload: "vectoradd", System: ccsvm.SystemCCSVM, N: 256},
	{Name: "code_vectoradd_opencl", Workload: "vectoradd", System: ccsvm.SystemOpenCL, N: 256, Init: true},
}

func (o Options) matmulSizes() []int {
	if o.Full {
		return []int{16, 32, 64, 128}
	}
	return []int{16, 32, 64}
}

func (o Options) apspSizes() []int {
	if o.Full {
		return []int{16, 32, 64}
	}
	return []int{12, 24, 40}
}

func (o Options) barnesHutSizes() []int {
	if o.Full {
		return []int{128, 256, 512}
	}
	return []int{64, 128, 256}
}

func (o Options) sparseSizes() []int {
	if o.Full {
		return []int{64, 128, 192}
	}
	return []int{48, 96}
}

func (o Options) sparseDensities() []float64 {
	if o.Full {
		return []float64{0.005, 0.01, 0.02, 0.04, 0.08}
	}
	return []float64{0.01, 0.02, 0.04}
}

func (o Options) sparseFixedSize() int {
	if o.Full {
		return 128
	}
	return 64
}

// run executes a declared sweep through the facade Runner.
func (o Options) run(specs []ccsvm.RunSpec) ([]ccsvm.RunResult, error) {
	r := o.runner
	if r == nil {
		r = &ccsvm.Runner{Parallel: o.Parallel}
	}
	return r.Run(specs)
}

// spec builds one RunSpec on the named workload and a default-configured
// system.
func (o Options) spec(workload string, kind ccsvm.SystemKind, n int, density float64, includeInit bool) ccsvm.RunSpec {
	return ccsvm.RunSpec{
		Workload: workload,
		System:   ccsvm.MustSystem(kind),
		Params: ccsvm.Params{
			N: n, Density: density, Seed: o.Seed, IncludeInit: includeInit,
		},
	}
}

// relative reports r as a multiple of the baseline.
func relative(r, baseline ccsvm.Result) float64 {
	if baseline.Time == 0 {
		return 0
	}
	return float64(r.Time) / float64(baseline.Time)
}

// Table2 returns the system-configuration table (experiment E1).
func Table2() *stats.Table {
	c := core.DefaultConfig()
	a := apu.DefaultConfig()
	t := stats.NewTable("Table 2: system configurations", "Parameter", "CCSVM (simulated)", "APU (simulated baseline)")
	t.AddRow("CPU cores", c.NumCPUs, a.NumCPUs)
	t.AddRow("CPU max IPC", 1/c.CPUCPI, 1/a.CPUCPI)
	t.AddRow("CPU clock (GHz)", c.CPUClockHz/1e9, a.CPUClockHz/1e9)
	t.AddRow("MTTOP/GPU cores", c.NumMTTOPs, fmt.Sprintf("%d SIMD x %d VLIW", a.GPUSIMDUnits, a.GPULanes))
	t.AddRow("MTTOP/GPU clock (MHz)", c.MTTOPClockHz/1e6, a.GPUClockHz/1e6)
	t.AddRow("Peak throughput (ops/cycle)", c.PeakMTTOPOpsPerCycle(), a.GPUSIMDUnits*a.GPULanes*a.GPUVLIWOpsPerInstr)
	t.AddRow("MTTOP thread contexts", c.TotalMTTOPThreadContexts(), a.GPUSIMDUnits*a.GPUContextsPerUnit)
	t.AddRow("CPU L1 (KB)", c.CPUL1.SizeBytes/1024, a.CPUCaches.L1.SizeBytes/1024)
	t.AddRow("MTTOP L1 (KB)", c.MTTOPL1.SizeBytes/1024, "32 KB local per SIMD")
	t.AddRow("Shared L2", fmt.Sprintf("%d x %d KB (inclusive, dir)", c.L2Banks, c.L2BankBytes/1024), "1 MB private per CPU core")
	t.AddRow("TLB entries/core", c.TLBEntries, "n/a (no shared VM)")
	t.AddRow("Network", "2D torus, 12 GB/s links", "crossbar + DRAM staging")
	t.AddRow("DRAM latency", c.DRAM.Latency.String(), a.DRAM.Latency.String())
	return t
}

// oclFigure is the shared shape of Figures 5 and 6: for each size, a CPU
// baseline, the OpenCL full and no-init series, and CCSVM/xthreads, all
// relative to the baseline.
func oclFigure(o Options, workload, title, sizeCol string, sizes []int) (*stats.Table, error) {
	var specs []ccsvm.RunSpec
	for _, n := range sizes {
		specs = append(specs,
			o.spec(workload, ccsvm.SystemCPU, n, 0, false),
			o.spec(workload, ccsvm.SystemOpenCL, n, 0, true),
			o.spec(workload, ccsvm.SystemOpenCL, n, 0, false),
			o.spec(workload, ccsvm.SystemCCSVM, n, 0, false),
		)
	}
	res, err := o.run(specs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(title,
		sizeCol, "APU/OpenCL full", "APU/OpenCL no-init", "CCSVM/xthreads", "CPU baseline (us)")
	for i, n := range sizes {
		cpu, full, noInit, x := res[4*i].Result, res[4*i+1].Result, res[4*i+2].Result, res[4*i+3].Result
		t.AddRow(n, relative(full, cpu), relative(noInit, cpu), relative(x, cpu),
			float64(cpu.Time)/1e6)
	}
	return t, nil
}

// Figure5 reproduces the dense matrix-multiply comparison: runtime of the APU
// running OpenCL (full and without init/compile) and of CCSVM running
// xthreads, relative to one APU CPU core, as a function of matrix size.
func Figure5(o Options) (*stats.Table, error) {
	return oclFigure(o, "matmul",
		"Figure 5: dense matrix multiply (runtime relative to one APU CPU core; lower is better)",
		"N", o.matmulSizes())
}

// Figure6 reproduces the all-pairs-shortest-path comparison.
func Figure6(o Options) (*stats.Table, error) {
	return oclFigure(o, "apsp",
		"Figure 6: all-pairs shortest path (runtime relative to one APU CPU core; lower is better)",
		"V", o.apspSizes())
}

// Figure7 reproduces the Barnes-Hut comparison: CCSVM/xthreads and pthreads
// on the 4 APU CPU cores, both as speedup over one APU CPU core.
func Figure7(o Options) (*stats.Table, error) {
	sizes := o.barnesHutSizes()
	var specs []ccsvm.RunSpec
	for _, n := range sizes {
		specs = append(specs,
			o.spec("barneshut", ccsvm.SystemCPU, n, 0, false),
			o.spec("barneshut", ccsvm.SystemPthreads, n, 0, false),
			o.spec("barneshut", ccsvm.SystemCCSVM, n, 0, false),
		)
	}
	res, err := o.run(specs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 7: Barnes-Hut n-body (speedup over one APU CPU core; higher is better)",
		"Bodies", "APU pthreads x4", "CCSVM/xthreads", "CPU baseline (us)")
	for i, n := range sizes {
		cpu, pth, x := res[3*i].Result, res[3*i+1].Result, res[3*i+2].Result
		t.AddRow(n, pth.Speedup(cpu), x.Speedup(cpu), float64(cpu.Time)/1e6)
	}
	return t, nil
}

// Figure8Left reproduces the sparse matrix-multiply size sweep at fixed
// density (speedup of CCSVM/xthreads over one APU CPU core).
func Figure8Left(o Options) (*stats.Table, error) {
	const density = 0.01
	sizes := o.sparseSizes()
	var specs []ccsvm.RunSpec
	for _, n := range sizes {
		specs = append(specs,
			o.spec("sparse", ccsvm.SystemCPU, n, density, false),
			o.spec("sparse", ccsvm.SystemCCSVM, n, density, false),
		)
	}
	res, err := o.run(specs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 8 (left): sparse matmul, fixed 1% density (speedup over one APU CPU core)",
		"N", "CCSVM/xthreads speedup", "CPU baseline (us)")
	for i, n := range sizes {
		cpu, x := res[2*i].Result, res[2*i+1].Result
		t.AddRow(n, x.Speedup(cpu), float64(cpu.Time)/1e6)
	}
	return t, nil
}

// Figure8Right reproduces the sparse matrix-multiply density sweep at fixed
// size.
func Figure8Right(o Options) (*stats.Table, error) {
	n := o.sparseFixedSize()
	densities := o.sparseDensities()
	var specs []ccsvm.RunSpec
	for _, d := range densities {
		specs = append(specs,
			o.spec("sparse", ccsvm.SystemCPU, n, d, false),
			o.spec("sparse", ccsvm.SystemCCSVM, n, d, false),
		)
	}
	res, err := o.run(specs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(fmt.Sprintf("Figure 8 (right): sparse matmul, fixed N=%d (speedup over one APU CPU core)", n),
		"Density %", "CCSVM/xthreads speedup", "CPU baseline (us)")
	for i, d := range densities {
		cpu, x := res[2*i].Result, res[2*i+1].Result
		t.AddRow(d*100, x.Speedup(cpu), float64(cpu.Time)/1e6)
	}
	return t, nil
}

// Figure9 reproduces the off-chip DRAM access comparison for dense matrix
// multiply.
func Figure9(o Options) (*stats.Table, error) {
	sizes := o.matmulSizes()
	var specs []ccsvm.RunSpec
	for _, n := range sizes {
		specs = append(specs,
			o.spec("matmul", ccsvm.SystemCPU, n, 0, false),
			o.spec("matmul", ccsvm.SystemOpenCL, n, 0, false),
			o.spec("matmul", ccsvm.SystemCCSVM, n, 0, false),
		)
	}
	res, err := o.run(specs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 9: DRAM accesses for dense matrix multiply (lower is better)",
		"N", "APU CPU core", "APU/OpenCL", "CCSVM/xthreads")
	for i, n := range sizes {
		cpu, ocl, x := res[3*i].Result, res[3*i+1].Result, res[3*i+2].Result
		t.AddRow(n, cpu.DRAMAccesses, ocl.DRAMAccesses, x.DRAMAccesses)
	}
	return t, nil
}

// CodeComparison reproduces the qualitative Figure 3 vs Figure 4 point: the
// cost of offloading a 256-element vector add through the full OpenCL stack
// vs through xthreads.
func CodeComparison(o Options) (*stats.Table, error) {
	const n = 256
	specs := []ccsvm.RunSpec{
		o.spec("vectoradd", ccsvm.SystemCCSVM, n, 0, false),
		o.spec("vectoradd", ccsvm.SystemOpenCL, n, 0, false),
		o.spec("vectoradd", ccsvm.SystemOpenCL, n, 0, true),
	}
	res, err := o.run(specs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Figures 3/4: 256-element vector add, offload cost by programming model",
		"System", "Offload time", "DRAM accesses")
	for _, rr := range res {
		t.AddRow(rr.Result.Label, rr.Result.Time.String(), rr.Result.DRAMAccesses)
	}
	return t, nil
}

// All runs every experiment in order and returns the tables. Every sweep
// runs on one Runner, so a worker builds only its first machine of each
// shape from scratch.
func All(o Options) ([]*stats.Table, error) {
	o.runner = &ccsvm.Runner{Parallel: o.Parallel}
	var out []*stats.Table
	out = append(out, Table2())
	steps := []func(Options) (*stats.Table, error){
		Figure5, Figure6, Figure7, Figure8Left, Figure8Right, Figure9, CodeComparison,
		LaneSensitivity, CacheSensitivity, ProtocolSensitivity,
	}
	for _, step := range steps {
		tb, err := step(o)
		if err != nil {
			return out, err
		}
		out = append(out, tb)
	}
	return out, nil
}

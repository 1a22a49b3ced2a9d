package workloads

import (
	"testing"

	"ccsvm/internal/apu"
	"ccsvm/internal/core"
)

// The workload tests run every benchmark at small sizes on both machines,
// checking functional correctness (each Run* function verifies its output
// against the plain-Go reference and returns Checked=true) and the
// directional claims of the paper's evaluation that must hold at any size.

func smallCCSVM() core.Config { return core.SmallConfig() }

func smallAPU() apu.Config {
	cfg := apu.DefaultConfig()
	cfg.GPUContextsPerUnit = 64
	return cfg
}

func TestReferenceKernels(t *testing.T) {
	a := []int32{1, 2, 3, 4}
	b := []int32{5, 6, 7, 8}
	c := matMulRef(a, b, 2)
	want := []int32{19, 22, 43, 50}
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("matMulRef[%d] = %d, want %d", i, c[i], want[i])
		}
	}
	dist := []int32{0, 4, apspInfinity, 0}
	out := apspRef(dist, 2)
	if out[1] != 4 || out[2] != apspInfinity {
		t.Fatalf("apspRef wrong: %v", out)
	}
	if threadCountFor(10, 4) != 4 || threadCountFor(2, 100) != 2 || threadCountFor(0, 5) != 1 {
		t.Fatal("threadCountFor wrong")
	}
}

func TestMatMulAllSystems(t *testing.T) {
	const n, seed = 12, 7
	ccsvm, err := MatMulXthreads(smallCCSVM(), n, seed)
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := MatMulCPU(smallAPU(), n, seed)
	if err != nil {
		t.Fatal(err)
	}
	oclFull, err := MatMulOpenCL(smallAPU(), n, seed, true)
	if err != nil {
		t.Fatal(err)
	}
	oclNoInit, err := MatMulOpenCL(smallAPU(), n, seed, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Result{ccsvm, cpu, oclFull, oclNoInit} {
		if !r.Checked || r.Time <= 0 {
			t.Fatalf("result not checked or zero time: %v", r)
		}
	}
	// Directional claims for a small problem (the regime Figure 5 is about):
	// CCSVM beats the CPU baseline, the OpenCL offload loses to the CPU, and
	// including JIT/initialization makes OpenCL strictly slower.
	if ccsvm.Time >= cpu.Time {
		t.Errorf("CCSVM (%v) should beat the single CPU core (%v) at n=%d", ccsvm.Time, cpu.Time, n)
	}
	if oclNoInit.Time <= cpu.Time {
		t.Errorf("OpenCL offload (%v) should lose to the CPU (%v) for a tiny matrix", oclNoInit.Time, cpu.Time)
	}
	if oclFull.Time <= oclNoInit.Time {
		t.Errorf("full OpenCL runtime (%v) must exceed the no-init runtime (%v)", oclFull.Time, oclNoInit.Time)
	}
	// Figure 9's claim: the CCSVM chip needs far fewer off-chip accesses than
	// the OpenCL offload, which stages everything through DRAM.
	if ccsvm.DRAMAccesses >= oclNoInit.DRAMAccesses {
		t.Errorf("CCSVM DRAM accesses (%d) should be below APU/OpenCL (%d)", ccsvm.DRAMAccesses, oclNoInit.DRAMAccesses)
	}
}

func TestAPSPAllSystems(t *testing.T) {
	const n, seed = 10, 11
	ccsvm, err := APSPXthreads(smallCCSVM(), n, seed)
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := APSPCPU(smallAPU(), n, seed)
	if err != nil {
		t.Fatal(err)
	}
	ocl, err := APSPOpenCL(smallAPU(), n, seed, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Result{ccsvm, cpu, ocl} {
		if !r.Checked || r.Time <= 0 {
			t.Fatalf("result not checked or zero time: %v", r)
		}
	}
	// Figure 6: the per-iteration kernel launch + clFinish keeps the APU
	// behind the plain CPU core at every size.
	if ocl.Time <= cpu.Time {
		t.Errorf("APU/OpenCL APSP (%v) should be slower than the CPU core (%v)", ocl.Time, cpu.Time)
	}
	if ccsvm.Time >= ocl.Time {
		t.Errorf("CCSVM APSP (%v) should beat APU/OpenCL (%v)", ccsvm.Time, ocl.Time)
	}
}

func TestVectorAddBothModels(t *testing.T) {
	const n, seed = 32, 3
	x, err := VectorAddXthreads(smallCCSVM(), n, seed)
	if err != nil {
		t.Fatal(err)
	}
	o, err := VectorAddOpenCL(smallAPU(), n, seed, true)
	if err != nil {
		t.Fatal(err)
	}
	if !x.Checked || !o.Checked {
		t.Fatal("results not verified")
	}
	// The Figure 3 vs Figure 4 point: offloading 32 additions through OpenCL
	// costs orders of magnitude more than through CCSVM/xthreads.
	if x.Time*100 >= o.Time {
		t.Errorf("xthreads vector add (%v) should be >=100x faster than full OpenCL (%v)", x.Time, o.Time)
	}
}

func TestBarnesHutAllSystems(t *testing.T) {
	const bodies, seed = 48, 5
	x, err := BarnesHutXthreads(smallCCSVM(), bodies, seed)
	if err != nil {
		t.Fatal(err)
	}
	cpu1, err := BarnesHutCPU(smallAPU(), bodies, seed)
	if err != nil {
		t.Fatal(err)
	}
	pth, err := BarnesHutPthreads(smallAPU(), bodies, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Result{x, cpu1, pth} {
		if !r.Checked || r.Time <= 0 {
			t.Fatalf("result not checked or zero time: %v", r)
		}
	}
	// Figure 7: pthreads on 4 cores beats 1 core. At this tiny body count the
	// sequential tree build on the CCSVM chip's deliberately weak CPU
	// dominates, so we only require CCSVM to be competitive here; the
	// crossover where it beats one core outright shows at the larger body
	// counts of the Figure 7 sweep (`go run ./cmd/paper-figs -fig 7`).
	if pth.Time >= cpu1.Time {
		t.Errorf("pthreads x4 (%v) should beat one CPU core (%v)", pth.Time, cpu1.Time)
	}
	if x.Time >= 2*cpu1.Time {
		t.Errorf("CCSVM/xthreads (%v) should be within 2x of one CPU core (%v) even at 48 bodies", x.Time, cpu1.Time)
	}
}

func TestSparseMMBothSystems(t *testing.T) {
	const n, seed = 24, 9
	const density = 0.05
	x, err := SparseMMXthreads(smallCCSVM(), n, density, seed)
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := SparseMMCPU(smallAPU(), n, density, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !x.Checked || !cpu.Checked {
		t.Fatal("results not verified")
	}
	if x.Time <= 0 || cpu.Time <= 0 {
		t.Fatal("zero measured time")
	}
	// Speedup() sanity: relative ordering is reported consistently.
	if s := x.Speedup(cpu); s <= 0 {
		t.Fatalf("speedup %v must be positive", s)
	}
}

func TestResultHelpers(t *testing.T) {
	a := Result{Label: "a", Time: 100}
	b := Result{Label: "b", Time: 200}
	if a.Speedup(b) != 2.0 {
		t.Fatalf("speedup = %v, want 2", a.Speedup(b))
	}
	if (Result{}).Speedup(b) != 0 {
		t.Fatal("zero-time result should report zero speedup")
	}
	if a.String() == "" {
		t.Fatal("empty String()")
	}
}

// Package ccsvm_test holds the benchmark harness: BenchmarkPaperSeries runs
// every paper series of internal/experiments (one point per figure and
// system, the list cmd/ccsvm-bench records in BENCH_*.json) as one
// sub-benchmark per series name. Every series resolves its (workload, system)
// pair through the ccsvm registry, so the harness needs no knowledge of the
// per-system entry points. The series are small problem instances so `go test
// -bench` stays fast; cmd/paper-figs runs the full sweeps. Each benchmark
// reports the simulated time (sim_us) and off-chip traffic (dram_accesses) of
// the system it models alongside the host-time metrics Go reports natively.
package ccsvm_test

import (
	"fmt"
	"testing"

	"ccsvm"
	"ccsvm/internal/experiments"
)

const benchSeed = 42

// BenchmarkPaperSeries runs every paper series, one sub-benchmark each.
func BenchmarkPaperSeries(b *testing.B) {
	for _, s := range experiments.PaperSeries {
		b.Run(s.Name, func(b *testing.B) { benchRun(b, s) })
	}
}

// benchRun resolves the series' workload and system through the registry and
// runs it b.N times, reporting simulated time, off-chip traffic, allocations,
// and simulator throughput (engine events per host second — the headline
// number the hot path is optimized for; see ARCHITECTURE.md, "Hot path &
// pooling").
func benchRun(b *testing.B, s experiments.Series) {
	b.Helper()
	w, ok := ccsvm.Lookup(s.Workload)
	if !ok {
		b.Fatalf("workload %q not registered", s.Workload)
	}
	sys := ccsvm.MustSystem(s.System)
	// One arena across iterations, like a sweep worker: an untimed first run
	// warms it, so every timed iteration measures the steady state the
	// Runner and the bench CLI operate in. Results are bit-identical with or
	// without it. Its parked coroutines end with the benchmark.
	sys.Arena = ccsvm.NewArena()
	defer sys.Arena.StopCoroutines()
	p := s.Params(benchSeed)
	if _, err := w.Run(sys, p); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var last ccsvm.Result
	var events float64
	for i := 0; i < b.N; i++ {
		r, err := w.Run(sys, p)
		if err != nil {
			b.Fatal(err)
		}
		last = r
		events += r.Metrics["sim.events"]
	}
	b.StopTimer()
	b.ReportMetric(float64(last.Time)/1e6, "sim_us/op")
	b.ReportMetric(float64(last.DRAMAccesses), "dram_accesses/op")
	b.ReportMetric(events/float64(b.N), "sim_events/op")
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(events/sec, "sim_events/sec")
	}
}

// Figure 9: off-chip DRAM accesses. The benchmark runs the Figure 9 pair
// sweep through the Runner and reports each system's traffic; the
// assertion-level comparison lives in the workloads tests.

func BenchmarkFig9DRAMAccesses(b *testing.B) {
	specs := []ccsvm.RunSpec{
		{Workload: "matmul", System: ccsvm.MustSystem(ccsvm.SystemCCSVM), Params: ccsvm.Params{N: 32, Seed: benchSeed}},
		{Workload: "matmul", System: ccsvm.MustSystem(ccsvm.SystemOpenCL), Params: ccsvm.Params{N: 32, Seed: benchSeed}},
	}
	runner := &ccsvm.Runner{Parallel: 2}
	b.ReportAllocs()
	var last []ccsvm.RunResult
	for i := 0; i < b.N; i++ {
		res, err := runner.Run(specs)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last[0].Result.DRAMAccesses), "ccsvm_dram/op")
	b.ReportMetric(float64(last[1].Result.DRAMAccesses), "apu_dram/op")
}

// BenchmarkRunnerScaling measures sweep throughput through the Runner's
// worker pool: the same batch of paper-pair specs at 1/2/4/8/16 workers, with
// each worker reusing its arena across runs. The events/sec ratio between
// worker counts is the parallel-scaling trajectory cmd/ccsvm-bench records
// into BENCH_*.json as the scaling_w<N> series.
func BenchmarkRunnerScaling(b *testing.B) {
	// Four copies of every registered pair: enough runs per sweep that the
	// pool stays saturated at 16 workers.
	base := ccsvm.Pairs(ccsvm.Params{N: 16, Density: 0.05, Seed: benchSeed})
	var specs []ccsvm.RunSpec
	for i := 0; i < 4; i++ {
		specs = append(specs, base...)
	}
	for _, workers := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			runner := &ccsvm.Runner{Parallel: workers}
			b.ReportAllocs()
			var events float64
			for i := 0; i < b.N; i++ {
				res, err := runner.Run(specs)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range res {
					events += r.Result.Metrics["sim.events"]
				}
			}
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(events/sec, "sim_events/sec")
			}
		})
	}
}

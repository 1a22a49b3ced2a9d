package main

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"ccsvm"
)

// series is one benchmark point of the paper's evaluation.
type series struct {
	Name     string
	Workload string
	System   string
	N        int
	Density  float64
	Init     bool
}

// paperSeries is the 14-series list of cmd/ccsvm-bench (and bench_test.go):
// the (workload, system, size) points the paper's figures use. The
// benchmark lives in a module of its own and cannot import that command, so
// the list is repeated here; TestPaperSeriesMatchBaseline pins it to the
// committed BENCH_*.json baseline.
var paperSeries = []series{
	{Name: "fig5_matmul_ccsvm", Workload: "matmul", System: "ccsvm", N: 32},
	{Name: "fig5_matmul_apu_opencl", Workload: "matmul", System: "opencl", N: 32},
	{Name: "fig5_matmul_apu_cpu", Workload: "matmul", System: "cpu", N: 32},
	{Name: "fig6_apsp_ccsvm", Workload: "apsp", System: "ccsvm", N: 20},
	{Name: "fig6_apsp_apu_opencl", Workload: "apsp", System: "opencl", N: 20},
	{Name: "fig6_apsp_apu_cpu", Workload: "apsp", System: "cpu", N: 20},
	{Name: "fig7_barneshut_ccsvm", Workload: "barneshut", System: "ccsvm", N: 96},
	{Name: "fig7_barneshut_apu_cpu", Workload: "barneshut", System: "cpu", N: 96},
	{Name: "fig7_barneshut_apu_pthreads", Workload: "barneshut", System: "pthreads", N: 96},
	{Name: "fig8_sparse_size_ccsvm", Workload: "sparse", System: "ccsvm", N: 48, Density: 0.02},
	{Name: "fig8_sparse_size_apu_cpu", Workload: "sparse", System: "cpu", N: 48, Density: 0.02},
	{Name: "fig8_sparse_density_ccsvm", Workload: "sparse", System: "ccsvm", N: 48, Density: 0.06},
	{Name: "code_vectoradd_xthreads", Workload: "vectoradd", System: "ccsvm", N: 256},
	{Name: "code_vectoradd_opencl", Workload: "vectoradd", System: "opencl", N: 256, Init: true},
}

// spec is one run of a workload's spec list: the RunSpec the Runner executes
// (naming the shim workload) and a label for traces and profiles.
type spec struct {
	label string
	run   ccsvm.RunSpec
}

// benchWorkload is one named workload of the benchmark. Machine-dependent
// layer probes build the CCSVM chip from preset with protocol.
type benchWorkload struct {
	name     string
	preset   string
	protocol string
	specs    func(seed int64) ([]spec, error)
}

// workloads are the benchmark's workloads, in BENCHMARK.json order. Why each
// exists is in the package comment.
var workloads = []benchWorkload{
	{
		name: "paper-ccsvm", preset: "ccsvm-base", protocol: "moesi",
		specs: func(seed int64) ([]spec, error) { return paperSpecs(seed, true, "", nil) },
	},
	{
		name: "paper-apu", preset: "ccsvm-base", protocol: "moesi",
		specs: func(seed int64) ([]spec, error) { return paperSpecs(seed, false, "", nil) },
	},
	{
		name: "mesi-small-cache", preset: "ccsvm-small-cache", protocol: "mesi",
		specs: func(seed int64) ([]spec, error) {
			return paperSpecs(seed, true, "ccsvm-small-cache", []string{"ccsvm.coherence.protocol=mesi"})
		},
	},
	{
		name: "sweep-small", preset: "ccsvm-base", protocol: "moesi",
		specs: sweepSpecs,
	},
}

func lookupWorkload(name string) (*benchWorkload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// paperSpecs returns the paper series on the CCSVM chip (ccsvm true) or on
// the APU (ccsvm false), optionally on a preset with overrides.
func paperSpecs(seed int64, ccsvmSide bool, preset string, overrides []string) ([]spec, error) {
	var out []spec
	for _, s := range paperSeries {
		if (s.System == string(ccsvm.SystemCCSVM)) != ccsvmSide {
			continue
		}
		p := ccsvm.Params{N: s.N, Density: s.Density, Seed: seed, IncludeInit: s.Init}
		rs, err := ccsvm.BuildSpec(s.Workload, ccsvm.SystemKind(s.System), preset, overrides, p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Name, err)
		}
		out = append(out, spec{label: s.Name, run: shimmed(rs)})
	}
	return out, nil
}

// sweepSpecs is every registered (workload, system) pair on every registered
// preset at a small problem size: the many-short-runs shape of a design-space
// sweep.
func sweepSpecs(seed int64) ([]spec, error) {
	p := ccsvm.Params{N: 8, Density: 0.1, Seed: seed}
	var out []spec
	for _, pr := range ccsvm.Presets() {
		for _, kind := range pr.Kinds() {
			for _, w := range ccsvm.Workloads() {
				if isShim(w.Name) || !w.Supports(kind) {
					continue
				}
				rs, err := ccsvm.BuildSpec(w.Name, kind, pr.Name, nil, p)
				if err != nil {
					return nil, fmt.Errorf("%s/%s@%s: %w", w.Name, kind, pr.Name, err)
				}
				out = append(out, spec{label: fmt.Sprintf("%s/%s@%s", w.Name, kind, pr.Name), run: shimmed(rs)})
			}
		}
	}
	return out, nil
}

// The benchmark times every simulation from outside the simulator: each
// registered workload W gets a shim "bench/W" whose runners call W's real
// Workload.Run and record its wall time. Specs name the shim, so the Runner's
// production path (lookup, per-worker arena, result assembly) is unchanged.
const shimPrefix = "bench/"

// noopWorkload runs no simulation; Runner.Run over it is the Runner's own
// per-run cost.
const noopWorkload = shimPrefix + "noop"

func isShim(name string) bool { return strings.HasPrefix(name, shimPrefix) }

func shimmed(rs ccsvm.RunSpec) ccsvm.RunSpec {
	rs.Workload = shimPrefix + rs.Workload
	return rs
}

// runLog is what the shims record while a Runner sweeps one spec list. The
// Runner is used with Parallel 1, so shims run one at a time, in spec order,
// on the worker goroutine, and the harness reads the log only after Run has
// returned.
type runLog struct {
	labels   []string // spec labels of the list being run, in order
	workload string   // benchmark workload name, a profile label
	next     int
	wall     []time.Duration // one per shim call
	tracer   *tracer         // nil when untraced
	parent   int             // span id of the enclosing rep
}

// arm resets the log for one Runner.Run over specs.
func (l *runLog) arm(workload string, specs []spec, tr *tracer, parent int) {
	l.workload = workload
	l.labels = l.labels[:0]
	for _, s := range specs {
		l.labels = append(l.labels, s.label)
	}
	l.next = 0
	l.wall = l.wall[:0]
	l.tracer, l.parent = tr, parent
}

// shimLog is the single log every shim writes to; the shims are registered
// once per process, so it is shared like the workload registry itself.
var shimLog = &runLog{}

var registerShims = sync.OnceFunc(func() {
	for _, w := range ccsvm.Workloads() {
		if isShim(w.Name) {
			continue
		}
		runners := make(map[ccsvm.SystemKind]ccsvm.RunFunc, len(w.Runners))
		for kind := range w.Runners {
			runners[kind] = func(sys ccsvm.System, p ccsvm.Params) (ccsvm.Result, error) {
				return shimLog.timeRun(w, sys, p)
			}
		}
		ccsvm.Register(ccsvm.Workload{
			Name:            shimPrefix + w.Name,
			Description:     "timed " + w.Name,
			UsesDensity:     w.UsesDensity,
			UsesIncludeInit: w.UsesIncludeInit,
			Runners:         runners,
		})
	}
	noop := make(map[ccsvm.SystemKind]ccsvm.RunFunc)
	for _, kind := range ccsvm.Systems() {
		noop[kind] = func(ccsvm.System, ccsvm.Params) (ccsvm.Result, error) {
			return ccsvm.Result{Checked: true}, nil
		}
	}
	ccsvm.Register(ccsvm.Workload{Name: noopWorkload, Description: "no simulation", Runners: noop})
})

// timeRun runs the real workload and records its wall time; when tracing,
// the run is also a span and carries pprof labels.
func (l *runLog) timeRun(w *ccsvm.Workload, sys ccsvm.System, p ccsvm.Params) (ccsvm.Result, error) {
	label := l.labels[l.next]
	l.next++
	var r ccsvm.Result
	var err error
	if l.tracer == nil {
		start := time.Now()
		r, err = w.Run(sys, p)
		l.wall = append(l.wall, time.Since(start))
		return r, err
	}
	pprof.Do(context.Background(), pprof.Labels("workload", l.workload, "spec", label), func(context.Context) {
		sp := l.tracer.begin("run "+label, l.parent)
		r, err = w.Run(sys, p)
		l.wall = append(l.wall, l.tracer.end(sp))
	})
	return r, err
}

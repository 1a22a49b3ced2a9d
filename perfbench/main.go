// Command ccsvm-perf is the repository's benchmark: it runs one named
// workload of simulations through the production sweep path and prints every
// end-to-end metric (or, traced, every per-layer metric) by name with its
// unit, after checking every run's output. BENCHMARK.json at the repository
// root declares the workloads, the metrics and their regression bounds.
//
// It is a module of its own so that it can be run, unchanged, against any
// commit of the simulator; perfbench/run.sh builds it from the checkout's
// source and runs it from the checkout root:
//
//	bash perfbench/run.sh --workload paper-ccsvm --seed 42 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload paper-ccsvm --seed 42 --seconds 20 --trace 1
//
// The last line of standard output is the result, one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// The line before it is a JSON document with the details: host, rep and
// sample counts, quartiles of the rate metrics, the cold-pass times, the
// correctness fingerprint and each spec's simulated time, events and trace
// hash. Failed runs are listed on standard error. The exit code is non-zero
// only for harness errors (bad flags, an unknown workload, unwritable trace
// files); failed runs show as "correct": false.
//
// # Production path
//
// Every run goes through ccsvm.Runner with Parallel 1 — one worker with its
// machine-part arena — and GOMAXPROCS is pinned to 1, the ratio of a Runner
// whose workers fill every P. With a second, idle P, each cross-thread exec
// handoff wakes an OS thread on another CPU instead of switching in place:
// in six paired runs on a 2-vCPU VM that made paper-ccsvm 14–39% slower and
// the range of its results twice as wide, a cost a saturated sweep never
// pays. Each workload is a closed loop: a rep is one Runner.Run over
// the workload's spec list, and the next rep starts only after the previous
// one finished. Reps repeat until --seconds have passed. All timing is taken
// from outside the simulator: a shim workload "bench/W", registered through
// ccsvm.Register for every workload W, times each call to W's real
// Workload.Run, and the harness times each Runner.Run.
//
// # Workloads
//
//   - paper-ccsvm: the 6 CCSVM series of the paper's figures 5–8 and the
//     vector-add example (sizes as in cmd/ccsvm-bench). Hundreds of MTTOP
//     threads share lines, so the time goes to exec cross-thread handoffs,
//     the coherence directory and the noc torus. Runs take 10–140 ms, so
//     machine construction is a small share.
//   - paper-apu: the 8 APU series (cpu, opencl, pthreads). It never touches
//     the directory or the torus: a coherence or noc change must show no
//     change here. The single-thread cpu series use the exec self-completion
//     fast path instead.
//   - mesi-small-cache: the paper-ccsvm specs on preset ccsvm-small-cache
//     with ccsvm.coherence.protocol=mesi. Small caches and MESI turn owner
//     forwards into 4-hop directory-answered misses, dirty writebacks and
//     eviction Put traffic, so a change that speeds up forwards at the cost
//     of writebacks shows here.
//   - sweep-small: every registered (workload, system) pair on every
//     registered preset at N=8, density 0.1 (54 specs). Runs take about 3 ms,
//     so machine build (core, apu, simarena), per-run Runner overhead and GC
//     dominate: set-up-path work shows here and nowhere else.
//
// # End-to-end metrics
//
// Host time, from the untraced run (--trace 0):
//
//	name              unit      better  bound  definition
//	sim_events_per_s  events/s  higher  24%    median over reps of engine events / rep wall time
//	runs_per_s        runs/s    higher  24%    median over reps of runs / rep wall time
//	run_ms_p50        ms        lower   24%    median per-run wall time from the shim
//	run_ms_p90        ms        lower   24%    90th percentile per-run wall time from the shim
//	setup_s           s         lower   25%    median of 5 cold passes (fresh Runner, GC first, each spec once)
//	alloc_mb_per_run  MB        lower   10%    Go heap bytes allocated per measured run, 1 MB = 1e6 bytes
//
// The details report q1 and q3 over reps for the two rate metrics, the
// number of per-run samples, and the highest percentile with at least ten
// samples beyond it (tailPercentile). Medians over reps, not a total,
// because on a small shared host the speed of the same code drifts between
// phases seconds to tens of seconds long; the median keeps a run's number
// out of a phase shorter than half the run. The bounds are that wide because
// of the phases that are not: on a 2-vCPU VM, ten 20-second runs of one
// workload, one per seed, spread by 7–17% between their quartiles, and by
// 28% when a slow phase covered three of the ten; allocation, which the host
// does not move, varied by under 3% across seeds.
// A failed run is counted in "failed", not in a metric.
//
// # Per-layer metrics
//
// Printed by the traced run (--trace 1). Layers use the module names.
//
// Counts from one pass of the spec list (simulated units, exact: they repeat
// bit for bit for any change that only alters simulator speed):
// sim.events_per_run, sim.time_us_per_run, noc.messages_per_run,
// noc.mean_latency_ns, coherence.forwards_per_run,
// coherence.invalidations_per_run, l1.hit_rate, l2.hit_rate, tlb.hit_rate,
// dram.accesses_per_run, kernel.page_faults_per_run, mifd.threads_per_run,
// cpu.instructions_per_run, mttop.instructions_per_run,
// gpu.instructions_per_run and opencl.overhead_us_per_run.
//
// From the Go runtime over the untraced half of the traced run:
// runtime.gc_cpu_frac (GC share of the CPU time used), runtime.allocs_per_run,
// runtime.gc_cycles_per_run, runtime.max_rss_mb (getrusage), and
// exec.sched_wakeups_per_event (goroutines the scheduler ran, from
// /sched/latencies:seconds, per engine event).
//
// Host time of direct calls into each layer, median of 7 repeats:
// sim.dispatch_ns_per_event (Engine.ScheduleArg plus Step, 90% of delays
// inside the 64 ns calendar window); exec.self_ns_per_op (one Thread,
// self-completing) and exec.switch_ns_per_op (two threads alternating
// completions); coherence.miss_ns.moesi/.mesi (L1Controller.Access read miss
// through a DirectoryBank to DRAM and fill) and coherence.transfer_ns.moesi/
// .mesi (write ping-pong between two L1s); noc.ns_per_hop (Torus.Send over a
// fixed multi-hop route); core.build_us (NewMachine plus Shutdown with an
// arena), core.build_fresh_us (without), core.build_allocs, apu.build_us;
// ccsvm.runner_overhead_us_per_run (Runner.Run over a workload that
// simulates nothing). Machine-dependent probes use the workload's own preset
// and protocol.
//
// From the spans of the traced half: ccsvm.runner_self_us_per_run (rep spans
// minus their run spans, per run) and trace.overhead_frac (1 − traced
// runs/s ÷ untraced runs/s of the same invocation).
//
// # Which layer metric should move which end-to-end metric
//
//   - sim.*: sim_events_per_s on all four workloads.
//   - exec.switch_ns_per_op, exec.sched_wakeups_per_event: sim_events_per_s
//     on paper-ccsvm and mesi-small-cache.
//   - exec.self_ns_per_op: paper-apu.
//   - coherence.*, noc.*: paper-ccsvm (forwards) and mesi-small-cache (misses
//     and writebacks); predicted no change on paper-apu.
//   - core.build_*, apu.build_us, ccsvm.runner_*, runtime.gc_cpu_frac:
//     runs_per_s and setup_s on sweep-small; predicted no change on
//     paper-ccsvm.
//   - runtime.allocs_per_run: alloc_mb_per_run everywhere.
//
// # Seeds
//
// --seed feeds every spec's Params.Seed, which generates the workload inputs;
// the same seed gives the same inputs and the same fingerprint. Use 42 while
// developing a change (at 42 the paper-ccsvm and paper-apu per-spec values
// equal the committed BENCH_*.json series) and the held-out 1042 for the
// numbers a claim rests on.
//
// # Reading a trace
//
// With --trace 1 the run writes, under -trace-dir/<workload>/:
//
//   - spans.json, in Chrome trace-event format: open it in Perfetto or
//     chrome://tracing. Each "rep <workload>" span contains one "run <spec>"
//     span per run; "probe <metric>" spans sit under one "probes" span. Every
//     event's args carry its span id and its parent's id. A span's self time
//     is its duration minus its children's.
//   - cpu.pprof, a CPU profile of the traced reps, labelled per run with
//     workload and spec: go tool pprof -tags cpu.pprof lists host time by
//     label, and -tagfocus spec=fig7_barneshut_ccsvm narrows to one series.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command line.
type options struct {
	seed     int64
	budget   time.Duration
	traced   bool
	traceDir string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ccsvm-perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run (paper-ccsvm, paper-apu, mesi-small-cache, sweep-small)")
	seed := fs.Int64("seed", 42, "input seed (42 for development, 1042 held out for claims)")
	seconds := fs.Int("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "1 runs the traced measurement and prints the per-layer metrics")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "trace"), "directory for spans.json and cpu.pprof when tracing")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "ccsvm-perf: usage: --workload NAME [--seed N] [--seconds N>=1] [--trace 0|1]")
		return 2
	}
	wl, err := lookupWorkload(*workload)
	if err != nil {
		fmt.Fprintf(stderr, "ccsvm-perf: %v\n", err)
		return 2
	}
	runtime.GOMAXPROCS(1)
	opts := options{
		seed:     *seed,
		budget:   time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		traceDir: filepath.Join(*traceDir, wl.name),
	}
	det, res, err := bench(wl, opts, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "ccsvm-perf: %v\n", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(det); err != nil {
		fmt.Fprintf(stderr, "ccsvm-perf: %v\n", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(stderr, "ccsvm-perf: %v\n", err)
		return 1
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// units names every metric the benchmark reports; BENCHMARK.json declares
// the same names and units (TestWorkloadsRunOneRep, TestTracedRun).
var units = map[string]string{
	// End to end.
	"sim_events_per_s": "events/s",
	"runs_per_s":       "runs/s",
	"run_ms_p50":       "ms",
	"run_ms_p90":       "ms",
	"setup_s":          "s",
	"alloc_mb_per_run": "MB",
	// Per layer: simulated counts and times of one pass.
	"sim.events_per_run":              "events",
	"sim.time_us_per_run":             "sim_us",
	"noc.messages_per_run":            "count",
	"noc.mean_latency_ns":             "sim_ns",
	"coherence.forwards_per_run":      "count",
	"coherence.invalidations_per_run": "count",
	"l1.hit_rate":                     "fraction",
	"l2.hit_rate":                     "fraction",
	"tlb.hit_rate":                    "fraction",
	"dram.accesses_per_run":           "count",
	"kernel.page_faults_per_run":      "count",
	"mifd.threads_per_run":            "count",
	"cpu.instructions_per_run":        "count",
	"mttop.instructions_per_run":      "count",
	"gpu.instructions_per_run":        "count",
	"opencl.overhead_us_per_run":      "sim_us",
	// Per layer: the Go runtime.
	"runtime.gc_cpu_frac":          "fraction",
	"runtime.allocs_per_run":       "count",
	"runtime.gc_cycles_per_run":    "count",
	"runtime.max_rss_mb":           "MB",
	"exec.sched_wakeups_per_event": "count/event",
	// Per layer: host time of probes and spans.
	"sim.dispatch_ns_per_event":        "ns",
	"exec.self_ns_per_op":              "ns",
	"exec.switch_ns_per_op":            "ns",
	"coherence.miss_ns.moesi":          "ns",
	"coherence.miss_ns.mesi":           "ns",
	"coherence.transfer_ns.moesi":      "ns",
	"coherence.transfer_ns.mesi":       "ns",
	"noc.ns_per_hop":                   "ns",
	"core.build_us":                    "us",
	"core.build_fresh_us":              "us",
	"core.build_allocs":                "count",
	"apu.build_us":                     "us",
	"ccsvm.runner_overhead_us_per_run": "us",
	"ccsvm.runner_self_us_per_run":     "us",
	"trace.overhead_frac":              "fraction",
}

// detail is the document printed before the result line.
type detail struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	Host     struct {
		Go         string `json:"go"`
		GOOS       string `json:"goos"`
		GOARCH     string `json:"goarch"`
		NumCPU     int    `json:"num_cpu"`
		GOMAXPROCS int    `json:"gomaxprocs"`
	} `json:"host"`
	// Reps, Runs and RunSamples count the untraced measured loop.
	Reps       int `json:"reps"`
	Runs       int `json:"runs"`
	RunSamples int `json:"run_samples"`
	// Tail is the highest percentile of per-run wall time with at least ten
	// samples beyond it.
	Tail struct {
		Percentile float64 `json:"percentile"`
		Beyond     int     `json:"beyond"`
		Ms         float64 `json:"ms"`
	} `json:"tail"`
	// Quartiles holds q1, median and q3 over reps.
	Quartiles   map[string][3]float64 `json:"quartiles"`
	SetupPasses []float64             `json:"setup_passes_s"`
	Fingerprint fingerprint           `json:"fingerprint"`
	Specs       []specRecord          `json:"specs"`
	TraceDir    string                `json:"trace_dir,omitempty"`
}

// specRecord is one spec's simulated outcome in the first cold pass.
type specRecord struct {
	Label     string  `json:"label"`
	SimTimePs int64   `json:"sim_time_ps"`
	SimEvents float64 `json:"sim_events"`
	TraceHash string  `json:"trace_hash"`
}

// bench measures one workload: set-up, then the untraced loop for the whole
// budget, or, traced, an untraced and a traced loop of half the budget each
// followed by the layer probes.
func bench(wl *benchWorkload, o options, failures io.Writer) (detail, result, error) {
	var det detail
	res := result{Metrics: map[string]metric{}}
	put := func(name string, v float64) {
		u, ok := units[name]
		if !ok {
			panic("ccsvm-perf: metric without a unit: " + name)
		}
		res.Metrics[name] = metric{Value: v, Unit: u}
	}

	s, err := newSession(wl, o.seed, failures)
	if err != nil {
		return det, res, err
	}
	setupSecs, first := s.setup()

	det.Workload, det.Seed, det.Traced = wl.name, o.seed, o.traced
	det.Host.Go, det.Host.GOOS, det.Host.GOARCH = runtime.Version(), runtime.GOOS, runtime.GOARCH
	det.Host.NumCPU, det.Host.GOMAXPROCS = runtime.NumCPU(), runtime.GOMAXPROCS(0)
	det.SetupPasses = setupSecs
	det.Fingerprint = fingerprintOf(first)
	for i, rr := range first {
		det.Specs = append(det.Specs, specRecord{
			Label:     s.specs[i].label,
			SimTimePs: int64(rr.Result.Time),
			SimEvents: rr.Result.Metrics["sim.events"],
			TraceHash: fmt.Sprintf("%016x", traceHash(rr.Result)),
		})
	}

	budget := o.budget
	if o.traced {
		budget /= 2
	}
	st := s.loop(budget, nil)
	det.Reps, det.Runs, det.RunSamples = st.reps, st.runs, len(st.runWall)
	det.Tail.Percentile, det.Tail.Beyond = tailPercentile(len(st.runWall))
	det.Tail.Ms = percentile(st.runWall, det.Tail.Percentile)
	det.Quartiles = map[string][3]float64{}
	for name, xs := range map[string][]float64{"sim_events_per_s": st.eventRates, "runs_per_s": st.runRates} {
		q1, q2, q3 := quartiles(xs)
		det.Quartiles[name] = [3]float64{q1, q2, q3}
	}

	if !o.traced {
		put("sim_events_per_s", median(st.eventRates))
		put("runs_per_s", median(st.runRates))
		put("run_ms_p50", percentile(st.runWall, 50))
		put("run_ms_p90", percentile(st.runWall, 90))
		put("setup_s", median(setupSecs))
		put("alloc_mb_per_run", float64(st.rt.allocBytes)/float64(st.runs)/1e6)
	} else {
		det.TraceDir = o.traceDir
		layer, tracedRunRate, err := traced(s, o, budget)
		if err != nil {
			return det, res, err
		}
		put("trace.overhead_frac", 1-tracedRunRate/median(st.runRates))
		for name, v := range countMetrics(first) {
			put(name, v)
		}
		runs := float64(st.runs)
		put("runtime.gc_cpu_frac", st.rt.gcCPU/(st.rt.totalCPU-st.rt.idleCPU))
		put("runtime.allocs_per_run", float64(st.rt.allocObjects)/runs)
		put("runtime.gc_cycles_per_run", float64(st.rt.gcCycles)/runs)
		put("runtime.max_rss_mb", maxRSSMB())
		put("exec.sched_wakeups_per_event", float64(st.rt.schedWakeups)/st.events)
		for name, v := range layer {
			put(name, v)
		}
	}
	res.Attempted, res.Failed = s.attempted, s.failed
	res.Correct = s.failed == 0
	return det, res, nil
}

// traced runs the traced loop under a CPU profile, then the layer probes,
// and writes spans.json and cpu.pprof to o.traceDir. It returns the probe
// metrics with ccsvm.runner_self_us_per_run, and the traced loop's median
// runs/s.
func traced(s *session, o options, budget time.Duration) (map[string]float64, float64, error) {
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return nil, 0, err
	}
	prof, err := os.Create(filepath.Join(o.traceDir, "cpu.pprof"))
	if err != nil {
		return nil, 0, err
	}
	tr := newTracer()
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, 0, err
	}
	st := s.loop(budget, tr)
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return nil, 0, fmt.Errorf("write profile: %w", err)
	}

	ps, err := probes(s.wl, o.seed)
	if err != nil {
		return nil, 0, err
	}
	root := tr.begin("probes", 0)
	out, err := runProbes(ps, tr, root)
	tr.end(root)
	if err != nil {
		return nil, 0, err
	}
	out["ccsvm.runner_self_us_per_run"] = float64(st.repSelf.Nanoseconds()) / 1e3 / float64(st.runs)
	return out, median(st.runRates), tr.writeChrome(filepath.Join(o.traceDir, "spans.json"))
}

// maxRSSMB is the process's peak resident set size in MB (1e6 bytes).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports kilobytes
}

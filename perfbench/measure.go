package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"ccsvm"
)

// coldPasses is how many times set-up runs every spec once from a fresh
// Runner; setup_s is their median.
const coldPasses = 5

// session runs one workload's spec list through the production path — a
// ccsvm.Runner with one worker and its per-worker arena — and checks every
// run against the spec's first cold pass.
type session struct {
	wl    *benchWorkload
	specs []spec
	runs  []ccsvm.RunSpec
	ref   []uint64 // per-spec trace hash of the first cold pass

	attempted, failed int
	failures          io.Writer // one line per failed run
}

func newSession(wl *benchWorkload, seed int64, failures io.Writer) (*session, error) {
	registerShims()
	specs, err := wl.specs(seed)
	if err != nil {
		return nil, err
	}
	s := &session{wl: wl, specs: specs, failures: failures}
	for _, sp := range specs {
		s.runs = append(s.runs, sp.run)
	}
	return s, nil
}

func traceHash(r ccsvm.Result) uint64 {
	return uint64(r.Metrics["sim.trace_hash_hi"])<<32 | uint64(r.Metrics["sim.trace_hash_lo"])
}

// check counts one pass's runs and reports every run that failed, did not
// verify its output, or left a different event trace than the first cold
// pass (a determinism violation).
func (s *session) check(results []ccsvm.RunResult) {
	for i, rr := range results {
		s.attempted++
		var why string
		switch {
		case rr.Err != nil:
			why = rr.Err.Error()
		case !rr.Result.Checked:
			why = "output not verified"
		case s.ref != nil && traceHash(rr.Result) != s.ref[i]:
			why = fmt.Sprintf("trace hash %016x != cold pass %016x", traceHash(rr.Result), s.ref[i])
		default:
			continue
		}
		s.failed++
		fmt.Fprintf(s.failures, "failed run %s: %s\n", s.specs[i].label, why)
	}
}

// setup runs coldPasses passes over the spec list, each from a fresh Runner
// (so fresh arenas) after a GC, and returns their wall times in seconds and
// the first pass's results, which become the reference for every later run.
func (s *session) setup() ([]float64, []ccsvm.RunResult) {
	secs := make([]float64, coldPasses)
	var first []ccsvm.RunResult
	for i := range secs {
		runtime.GC()
		shimLog.arm(s.wl.name, s.specs, nil, 0)
		start := time.Now()
		results, _ := (&ccsvm.Runner{Parallel: 1}).Run(s.runs) // failures are counted per run
		secs[i] = time.Since(start).Seconds()
		s.check(results)
		if first == nil {
			first = results
			s.ref = make([]uint64, len(results))
			for j, rr := range results {
				s.ref[j] = traceHash(rr.Result)
			}
		}
	}
	return secs, first
}

// loopStats is what one measured loop observed.
type loopStats struct {
	reps       int
	runs       int
	eventRates []float64 // engine events per second, one per rep
	runRates   []float64 // runs per second, one per rep
	runWall    []float64 // milliseconds, one per run
	events     float64
	rt         runtimeSample // change over the loop
	repSelf    time.Duration // traced only: rep spans minus their run spans
}

// loop runs whole reps — one Runner.Run over the spec list each, one worker,
// the next rep only after the previous finished — until budget has elapsed,
// and at least one. With a tracer, reps and runs are spans.
func (s *session) loop(budget time.Duration, tr *tracer) loopStats {
	var st loopStats
	runner := &ccsvm.Runner{Parallel: 1}
	runtime.GC()
	before := readRuntime()
	start := time.Now()
	for st.reps == 0 || time.Since(start) < budget {
		rep := 0
		if tr != nil {
			rep = tr.begin("rep "+s.wl.name, 0)
		}
		shimLog.arm(s.wl.name, s.specs, tr, rep)
		t0 := time.Now()
		results, _ := runner.Run(s.runs) // failures are counted per run
		d := time.Since(t0)
		if tr != nil {
			d = tr.end(rep)
		}
		s.check(results)
		var events float64
		for _, rr := range results {
			events += rr.Result.Metrics["sim.events"]
		}
		st.reps++
		st.runs += len(results)
		st.events += events
		st.eventRates = append(st.eventRates, events/d.Seconds())
		st.runRates = append(st.runRates, float64(len(results))/d.Seconds())
		for _, w := range shimLog.wall {
			st.runWall = append(st.runWall, float64(w.Nanoseconds())/1e6)
		}
	}
	st.rt = readRuntime().sub(before)
	if tr != nil {
		st.repSelf = tr.selfTime("rep " + s.wl.name)
	}
	return st
}

// runtimeSample is a reading of the Go runtime's own counters.
type runtimeSample struct {
	gcCPU, totalCPU, idleCPU float64 // seconds
	allocBytes, allocObjects uint64
	gcCycles                 uint64
	schedWakeups             uint64 // goroutines made runnable and then run
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/sched/latencies:seconds",
}

func readRuntime() runtimeSample {
	ss := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	var wakeups uint64
	for _, c := range ss[6].Value.Float64Histogram().Counts {
		wakeups += c
	}
	return runtimeSample{
		gcCPU:        ss[0].Value.Float64(),
		totalCPU:     ss[1].Value.Float64(),
		idleCPU:      ss[2].Value.Float64(),
		allocBytes:   ss[3].Value.Uint64(),
		allocObjects: ss[4].Value.Uint64(),
		gcCycles:     ss[5].Value.Uint64(),
		schedWakeups: wakeups,
	}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{
		gcCPU: a.gcCPU - b.gcCPU, totalCPU: a.totalCPU - b.totalCPU, idleCPU: a.idleCPU - b.idleCPU,
		allocBytes: a.allocBytes - b.allocBytes, allocObjects: a.allocObjects - b.allocObjects,
		gcCycles: a.gcCycles - b.gcCycles, schedWakeups: a.schedWakeups - b.schedWakeups,
	}
}

// countMetrics are the simulator's own per-run counts over one pass of the
// spec list. A pass is deterministic, so they repeat exactly for any change
// that only alters simulator speed. Rates average over the runs that report
// them (the APU has no TLB or NoC metrics).
func countMetrics(results []ccsvm.RunResult) map[string]float64 {
	n := float64(len(results))
	sum := func(key string) float64 {
		var t float64
		for _, rr := range results {
			t += rr.Result.Metrics[key]
		}
		return t
	}
	meanRate := func(key string) float64 {
		var t, k float64
		for _, rr := range results {
			if v, ok := rr.Result.Metrics[key]; ok {
				t += v
				k++
			}
		}
		if k == 0 {
			return 0
		}
		return t / k
	}
	var simPs, dram, latNs float64
	for _, rr := range results {
		simPs += float64(rr.Result.Time)
		dram += float64(rr.Result.DRAMAccesses)
		latNs += rr.Result.Metrics["noc.mean_latency_ns"] * rr.Result.Metrics["noc.messages"]
	}
	out := map[string]float64{
		"sim.events_per_run":              sum("sim.events") / n,
		"sim.time_us_per_run":             simPs / 1e6 / n,
		"noc.messages_per_run":            sum("noc.messages") / n,
		"noc.mean_latency_ns":             0,
		"coherence.forwards_per_run":      sum("coherence.forwards") / n,
		"coherence.invalidations_per_run": sum("coherence.invalidations") / n,
		"l1.hit_rate":                     meanRate("l1.hit_rate"),
		"l2.hit_rate":                     meanRate("l2.hit_rate"),
		"tlb.hit_rate":                    meanRate("tlb.hit_rate"),
		"dram.accesses_per_run":           dram / n,
		"kernel.page_faults_per_run":      sum("kernel.page_faults") / n,
		"mifd.threads_per_run":            sum("mifd.threads") / n,
		"cpu.instructions_per_run":        sum("cpu.instructions") / n,
		"mttop.instructions_per_run":      sum("mttop.instructions") / n,
		"gpu.instructions_per_run":        sum("gpu.instructions") / n,
		"opencl.overhead_us_per_run":      (sum("opencl.init_us") + sum("opencl.staging_us") + sum("opencl.launch_us")) / n,
	}
	if msgs := sum("noc.messages"); msgs > 0 {
		out["noc.mean_latency_ns"] = latNs / msgs
	}
	return out
}

// fingerprint identifies a pass's simulated behaviour: total simulated time
// and events, and the per-spec trace hashes folded in spec order.
type fingerprint struct {
	SimTimePs int64   `json:"sim_time_ps"`
	SimEvents float64 `json:"sim_events"`
	TraceHash string  `json:"trace_hash"`
}

func fingerprintOf(results []ccsvm.RunResult) fingerprint {
	var f fingerprint
	h := fnv.New64a()
	var buf [8]byte
	for _, rr := range results {
		f.SimTimePs += int64(rr.Result.Time)
		f.SimEvents += rr.Result.Metrics["sim.events"]
		binary.BigEndian.PutUint64(buf[:], traceHash(rr.Result))
		h.Write(buf[:])
	}
	f.TraceHash = fmt.Sprintf("%016x", h.Sum64())
	return f
}

// median of xs (xs is not modified).
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns the first quartile, median and third quartile of xs
// with the method of Python's statistics.quantiles(xs, n=4).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// tailLadder is the set of percentiles tailPercentile chooses from.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile of tailLadder that has at
// least ten of n samples beyond it, with that number of samples; below 20
// samples it returns the median and however many lie beyond it.
func tailPercentile(n int) (p float64, beyond int) {
	for _, p := range tailLadder {
		if b := n - rank(n, p); b >= 10 {
			return p, b
		}
	}
	p = tailLadder[len(tailLadder)-1]
	return p, n - rank(n, p)
}

// rank is the 1-based nearest rank of percentile p among n samples. The
// epsilon keeps p*n/100 that is whole in decimal (99.9% of 10000) from
// rounding up a rank through binary representation error.
func rank(n int, p float64) int {
	return max(1, int(math.Ceil(p*float64(n)/100-1e-9)))
}

// percentile is the nearest-rank percentile p of xs.
func percentile(xs []float64, p float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank(len(s), p)-1]
}

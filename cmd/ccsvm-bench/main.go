// Command ccsvm-bench measures simulator throughput for every paper-series
// benchmark and writes the results to BENCH_<date>.json, the repository's
// persistent benchmark baseline. Committing one baseline per optimization PR
// records the performance trajectory of the simulator itself — wall time,
// allocations, and simulation-events-per-second for each series — so
// regressions in the hot path are visible in review rather than discovered
// months later.
//
// Measurement mirrors the production sweep path: each series gets a
// machine-part Arena (as the Runner gives each of its workers one), so the
// numbers reflect engine/memory/message-pool reuse, not per-run construction.
//
// Usage:
//
//	ccsvm-bench                       # all series, 1 iteration each, BENCH_<today>.json
//	ccsvm-bench -iters 3              # average over 3 iterations per series
//	ccsvm-bench -out bench-artifacts  # write the JSON under a directory (CI uploads it)
//	ccsvm-bench -date 2026-07-29      # pin the filename date (reproducible CI paths)
//	ccsvm-bench -stdout               # also print the JSON to stdout
//	ccsvm-bench -parallel 1,2,4,8,16  # add scaling_w<N> series: the full list through the Runner
//	ccsvm-bench -cpuprofile cpu.pprof # profile the measured runs (pprof format)
//	ccsvm-bench -memprofile mem.pprof # heap profile after the measured runs
//
// Regression mode diffs a run against a committed baseline instead of
// writing one:
//
//	ccsvm-bench -compare BENCH_2026-10-20.json             # measure, then diff
//	ccsvm-bench -compare old.json -input new.json          # diff two files, no run
//
// The gate has three tiers per series, matched by name: sim_time_ps,
// sim_events and trace_hash must be bit-identical (the determinism contract —
// any drift is a simulation change, not noise), allocs_per_op may grow only
// within a tight threshold (-alloc-threshold, default 5% plus a few-alloc
// slack), and events_per_sec may drop only within a lenient threshold
// (-threshold, default 30%) because wall clock is noisy on shared runners.
// The events/sec tier only applies between runs on one machine class: when
// the baseline's gomaxprocs or CPU model differs from the current host (the
// -input file's, in file-vs-file mode), it is skipped and the report says
// "skipped: host differs"; the other two tiers are machine-independent and
// always enforced. Any violation, or a baseline series missing from the
// current run, exits 1.
//
// The series are experiments.PaperSeries, the list bench_test.go's `go test
// -bench` harness runs too: the (workload, system, size) points the paper's
// figures use, resolved through the ccsvm registry. The scaling_w<N> series
// sweep that whole list through the Runner at a fixed worker-pool size, each
// spec on a warm arena of its own (see measureSweep); their
// efficiency field is the measured speedup over the smallest pool divided by
// the ideal speedup (workers beyond GOMAXPROCS cannot add cores). Timing here
// is wall-clock on the current host — the numbers are comparable across
// commits on the same machine class (the baseline records GOMAXPROCS and the
// CPU model), not across machines; the simulated-time, event counts and trace
// hashes are bit-deterministic everywhere.
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"ccsvm"
	"ccsvm/internal/experiments"
)

const benchSeed = 42

// record is one measured series in the emitted JSON.
type record struct {
	experiments.Series
	Iters int `json:"iters"`
	// Workers is the Runner pool size on scaling_w<N> series; zero on the
	// single-series records.
	Workers     int     `json:"workers,omitempty"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp uint64  `json:"allocs_per_op"`
	BytesPerOp  uint64  `json:"bytes_per_op"`
	SimTimePs   int64   `json:"sim_time_ps"`
	SimEvents   float64 `json:"sim_events"`
	// TraceHash is the engine's order-sensitive event fingerprint in hex; on
	// scaling series it folds the per-run fingerprints of the sweep in spec
	// order. Bit-identical across hosts and worker counts by the determinism
	// contract.
	TraceHash    string  `json:"trace_hash,omitempty"`
	EventsPerSec float64 `json:"events_per_sec"`
	// Efficiency (scaling series only) is the measured events/sec speedup
	// over the smallest measured pool divided by the ideal speedup
	// min(workers, GOMAXPROCS)/min(smallest, GOMAXPROCS).
	Efficiency float64 `json:"efficiency,omitempty"`
}

// baseline is the whole emitted file.
type baseline struct {
	Date      string `json:"date"`
	GoVersion string `json:"go"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// GOMAXPROCS and CPU identify the machine class the wall-clock numbers
	// were measured on; baselines are only comparable within one class.
	GOMAXPROCS int      `json:"gomaxprocs"`
	CPU        string   `json:"cpu,omitempty"`
	Series     []record `json:"series"`
}

func main() {
	iters := flag.Int("iters", 1, "measured iterations per series (after one warmup run)")
	out := flag.String("out", ".", "directory to write BENCH_<date>.json into")
	date := flag.String("date", time.Now().Format("2006-01-02"), "date stamp for the output filename")
	toStdout := flag.Bool("stdout", false, "also print the JSON document to stdout")
	comparePath := flag.String("compare", "", "baseline BENCH_*.json to diff against; regressions exit 1 (no baseline file is written)")
	inputPath := flag.String("input", "", "with -compare: read current results from this BENCH_*.json instead of running the benchmarks")
	evThreshold := flag.Float64("threshold", 0.30, "with -compare: max tolerated relative events/sec drop")
	allocThreshold := flag.Float64("alloc-threshold", 0.05, "with -compare: max tolerated relative allocs/op increase")
	parallel := flag.String("parallel", "", "comma-separated Runner worker counts (e.g. 1,2,4,8,16); adds scaling_w<N> series sweeping the full list through the Runner")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the measured runs to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file after the measured runs")
	flag.Parse()

	if *iters < 1 {
		fmt.Fprintln(os.Stderr, "ccsvm-bench: -iters must be at least 1")
		os.Exit(2)
	}
	if *inputPath != "" && *comparePath == "" {
		fmt.Fprintln(os.Stderr, "ccsvm-bench: -input only makes sense with -compare")
		os.Exit(2)
	}
	workerCounts, err := parseWorkerCounts(*parallel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ccsvm-bench: %v\n", err)
		os.Exit(2)
	}

	if *comparePath != "" {
		base, err := readBaseline(*comparePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccsvm-bench: %v\n", err)
			os.Exit(2)
		}
		var cur baseline
		if *inputPath != "" {
			cur, err = readBaseline(*inputPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ccsvm-bench: %v\n", err)
				os.Exit(2)
			}
		} else {
			cur = thisHost(*date)
			cur.Series = mustRunAll(*iters, workerCounts, *cpuProfile, *memProfile)
		}
		if !compare(os.Stdout, base, cur, *evThreshold, *allocThreshold) {
			fmt.Fprintf(os.Stderr, "ccsvm-bench: regression against %s\n", *comparePath)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "ccsvm-bench: no regression against %s\n", *comparePath)
		return
	}
	b := thisHost(*date)
	b.Series = mustRunAll(*iters, workerCounts, *cpuProfile, *memProfile)

	doc, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "ccsvm-bench: %v\n", err)
		os.Exit(1)
	}
	doc = append(doc, '\n')
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "ccsvm-bench: %v\n", err)
		os.Exit(1)
	}
	path := filepath.Join(*out, "BENCH_"+*date+".json")
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "ccsvm-bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	if *toStdout {
		os.Stdout.Write(doc)
	}
}

// thisHost returns an empty baseline document describing the current host.
func thisHost(date string) baseline {
	return baseline{
		Date:       date,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
	}
}

// parseWorkerCounts decodes the -parallel flag into sorted pool sizes; the
// smallest becomes the scaling reference point.
func parseWorkerCounts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, field := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-parallel: bad worker count %q", field)
		}
		out = append(out, n)
	}
	sort.Ints(out)
	return out, nil
}

// mustRunAll measures every series (and the scaling sweep, when worker counts
// were given), optionally bracketing the measured runs with a CPU profile and
// following them with a heap profile. Any measurement error exits 1.
func mustRunAll(iters int, workerCounts []int, cpuProfile, memProfile string) []record {
	var cpuF *os.File
	if cpuProfile != "" {
		var err error
		cpuF, err = createProfileFile(cpuProfile)
		if err == nil {
			err = pprof.StartCPUProfile(cpuF)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccsvm-bench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
	}
	recs, err := runAll(iters, workerCounts)
	if cpuF != nil {
		pprof.StopCPUProfile()
		cpuF.Close()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ccsvm-bench: %v\n", err)
		os.Exit(1)
	}
	if memProfile != "" {
		f, err := createProfileFile(memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccsvm-bench: -memprofile: %v\n", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "ccsvm-bench: -memprofile: %v\n", err)
			os.Exit(1)
		}
		f.Close()
	}
	return recs
}

// createProfileFile creates a pprof output file, making its parent directory
// first so `-cpuprofile DIR/cpu.pprof -out DIR` works before DIR exists.
func createProfileFile(path string) (*os.File, error) {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	return os.Create(path)
}

// runAll measures the per-series records followed by the scaling sweep,
// printing one progress line per record to stderr.
func runAll(iters int, workerCounts []int) ([]record, error) {
	var recs []record
	for _, s := range experiments.PaperSeries {
		rec, err := measure(s, iters)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", s.Name, err)
		}
		recs = append(recs, rec)
		progress(rec)
	}
	scaling, err := measureScaling(iters, workerCounts)
	if err != nil {
		return nil, err
	}
	for _, rec := range scaling {
		progress(rec)
	}
	return append(recs, scaling...), nil
}

func progress(rec record) {
	line := fmt.Sprintf("%-28s %12d ns/op %10d allocs/op %14.0f events/sec",
		rec.Name, rec.NsPerOp, rec.AllocsPerOp, rec.EventsPerSec)
	if rec.Workers > 0 {
		line += fmt.Sprintf("  eff %.2f", rec.Efficiency)
	}
	fmt.Fprintln(os.Stderr, line)
}

// readBaseline loads and decodes one emitted BENCH_*.json document.
func readBaseline(path string) (baseline, error) {
	var b baseline
	doc, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(doc, &b); err != nil {
		return b, fmt.Errorf("%s: %v", path, err)
	}
	return b, nil
}

// cpuModel reads the host CPU model name. Wall-clock baselines are only
// comparable within one machine class, so the file records which class
// produced it; absent on hosts without /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			if i := strings.Index(rest, ":"); i >= 0 {
				return strings.TrimSpace(rest[i+1:])
			}
		}
	}
	return ""
}

// allocSlack is the absolute allocs/op increase tolerated on top of the
// relative threshold, so series with near-zero counts don't fail on a
// handful of runtime-internal allocations.
const allocSlack = 16

// compare diffs cur against base series-by-series (matched by name), writes
// one line per series to w, and reports whether the gate passes. The tiers
// are documented in the package comment: exact simulated time, event counts
// and trace hash, tight allocs/op, and lenient events/sec — the last only
// when both documents were measured on the same host class.
func compare(w io.Writer, base, cur baseline, evThreshold, allocThreshold float64) bool {
	wallClock := base.GOMAXPROCS == cur.GOMAXPROCS && base.CPU == cur.CPU
	if !wallClock {
		fmt.Fprintf(w, "events/sec tier skipped: host differs (baseline gomaxprocs %d, cpu %q; current gomaxprocs %d, cpu %q)\n",
			base.GOMAXPROCS, base.CPU, cur.GOMAXPROCS, cur.CPU)
	}
	curByName := make(map[string]record, len(cur.Series))
	for _, r := range cur.Series {
		curByName[r.Name] = r
	}
	ok := true
	for _, b := range base.Series {
		c, found := curByName[b.Name]
		if !found {
			fmt.Fprintf(w, "%-28s MISSING: series in baseline but not in this run\n", b.Name)
			ok = false
			continue
		}
		delete(curByName, b.Name)
		var problems []string
		if c.SimTimePs != b.SimTimePs {
			problems = append(problems, fmt.Sprintf("sim_time_ps %d != baseline %d (determinism)", c.SimTimePs, b.SimTimePs))
		}
		if c.SimEvents != b.SimEvents {
			problems = append(problems, fmt.Sprintf("sim_events %.0f != baseline %.0f (determinism)", c.SimEvents, b.SimEvents))
		}
		if b.TraceHash != "" && c.TraceHash != b.TraceHash {
			problems = append(problems, fmt.Sprintf("trace_hash %s != baseline %s (determinism)", c.TraceHash, b.TraceHash))
		}
		allocLimit := uint64(float64(b.AllocsPerOp)*(1+allocThreshold)) + allocSlack
		if c.AllocsPerOp > allocLimit {
			problems = append(problems, fmt.Sprintf("allocs/op %d > limit %d (baseline %d)", c.AllocsPerOp, allocLimit, b.AllocsPerOp))
		}
		if wallClock && b.EventsPerSec > 0 {
			evLimit := b.EventsPerSec * (1 - evThreshold)
			if c.EventsPerSec < evLimit {
				problems = append(problems, fmt.Sprintf("events/sec %.0f < limit %.0f (baseline %.0f)", c.EventsPerSec, evLimit, b.EventsPerSec))
			}
		}
		if len(problems) > 0 {
			fmt.Fprintf(w, "%-28s FAIL: %s\n", b.Name, strings.Join(problems, "; "))
			ok = false
			continue
		}
		events := "events/sec skipped"
		if wallClock {
			events = fmt.Sprintf("%+.1f%% events/sec", 100*(c.EventsPerSec/b.EventsPerSec-1))
		}
		fmt.Fprintf(w, "%-28s ok: %s, %+d allocs/op\n", b.Name, events, int64(c.AllocsPerOp)-int64(b.AllocsPerOp))
	}
	// New series are fine — they have no baseline yet — but say so, since a
	// rename shows up as one missing plus one new. Matched entries were
	// deleted above, so whatever is left in curByName is new; iterate cur to
	// keep the output order deterministic.
	for _, r := range cur.Series {
		if _, isNew := curByName[r.Name]; isNew {
			fmt.Fprintf(w, "%-28s new: no baseline entry\n", r.Name)
		}
	}
	return ok
}

// measure runs one series: a warmup run to populate pools and caches, then
// iters measured runs bracketed by runtime.MemStats reads for the allocation
// counters. Simulated time, event counts and the trace hash are taken from
// the last run; they are identical across runs by the determinism contract.
func measure(s experiments.Series, iters int) (record, error) {
	rec := record{Series: s, Iters: iters}
	w, ok := ccsvm.Lookup(s.Workload)
	if !ok {
		return rec, fmt.Errorf("workload not registered")
	}
	sys, err := ccsvm.NewSystem(s.System)
	if err != nil {
		return rec, err
	}
	// The production sweep path gives every Runner worker a machine-part
	// arena; measure the same way. The warmup run populates the arena, so the
	// measured iterations pay reuse cost, not construction cost. Its parked
	// coroutines end with the series.
	sys.Arena = ccsvm.NewArena()
	defer sys.Arena.StopCoroutines()
	p := s.Params(benchSeed)

	if _, err := w.Run(sys, p); err != nil {
		return rec, err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var last ccsvm.Result
	var events float64
	for i := 0; i < iters; i++ {
		r, err := w.Run(sys, p)
		if err != nil {
			return rec, err
		}
		last = r
		events += r.Metrics["sim.events"]
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)

	n := uint64(iters)
	rec.NsPerOp = wall.Nanoseconds() / int64(iters)
	rec.AllocsPerOp = (after.Mallocs - before.Mallocs) / n
	rec.BytesPerOp = (after.TotalAlloc - before.TotalAlloc) / n
	rec.SimTimePs = int64(last.Time)
	rec.SimEvents = last.Metrics["sim.events"]
	rec.TraceHash = traceHash(last)
	if sec := wall.Seconds(); sec > 0 {
		rec.EventsPerSec = events / sec
	}
	return rec, nil
}

// measureScaling sweeps the full paper-series list through the Runner at each
// requested worker-pool size, producing one scaling_w<N> record per size. The
// per-run results are bit-identical at every pool size (the sink-order and
// arena-reuse contracts), so the summed sim_time_ps/sim_events/trace_hash
// columns double as a parallelism determinism check; only wall time varies.
func measureScaling(iters int, workerCounts []int) ([]record, error) {
	if len(workerCounts) == 0 {
		return nil, nil
	}
	specs := make([]ccsvm.RunSpec, 0, len(experiments.PaperSeries))
	for _, s := range experiments.PaperSeries {
		sys, err := ccsvm.NewSystem(s.System)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", s.Name, err)
		}
		specs = append(specs, ccsvm.RunSpec{Workload: s.Workload, System: sys, Params: s.Params(benchSeed)})
	}
	recs := make([]record, 0, len(workerCounts))
	for _, workers := range workerCounts {
		rec, err := measureSweep(specs, workers, iters)
		if err != nil {
			return nil, fmt.Errorf("scaling_w%d: %v", workers, err)
		}
		recs = append(recs, rec)
	}
	// Efficiency: measured speedup over the smallest pool divided by the
	// ideal speedup. Workers beyond GOMAXPROCS cannot add cores, so the ideal
	// curve flattens there instead of pretending oversubscription should
	// scale linearly.
	ref := recs[0]
	p := runtime.GOMAXPROCS(0)
	for i := range recs {
		ideal := float64(min(recs[i].Workers, p)) / float64(min(ref.Workers, p))
		if ref.EventsPerSec > 0 && ideal > 0 {
			recs[i].Efficiency = (recs[i].EventsPerSec / ref.EventsPerSec) / ideal
		}
	}
	return recs, nil
}

// measureSweep measures one Runner pool size: a warmup sweep that fills one
// arena per spec, then iters measured sweeps of the whole spec list.
func measureSweep(specs []ccsvm.RunSpec, workers, iters int) (record, error) {
	rec := record{
		Series:  experiments.Series{Name: fmt.Sprintf("scaling_w%d", workers), Workload: "all", System: "runner"},
		Iters:   iters,
		Workers: workers,
	}
	// Each spec runs on an arena of its own, as measure gives each series
	// one, so the measured sweeps build nothing and start no coroutine
	// whichever worker runs which spec. The Runner's own worker arenas keep
	// their coroutines parked between calls too, but which parts and
	// coroutines a worker's arena holds depends on which specs that worker
	// happened to run, so allocs/op would depend on scheduling.
	specs = slices.Clone(specs)
	for i := range specs {
		specs[i].System.Arena = ccsvm.NewArena()
		defer specs[i].System.Arena.StopCoroutines()
	}
	runner := &ccsvm.Runner{Parallel: workers}
	if _, err := runner.Run(specs); err != nil {
		return rec, err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var last []ccsvm.RunResult
	var events float64
	for i := 0; i < iters; i++ {
		results, err := runner.Run(specs)
		if err != nil {
			return rec, err
		}
		last = results
		for _, rr := range results {
			events += rr.Result.Metrics["sim.events"]
		}
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)

	n := uint64(iters)
	rec.NsPerOp = wall.Nanoseconds() / int64(iters)
	rec.AllocsPerOp = (after.Mallocs - before.Mallocs) / n
	rec.BytesPerOp = (after.TotalAlloc - before.TotalAlloc) / n
	for _, rr := range last {
		rec.SimTimePs += int64(rr.Result.Time)
		rec.SimEvents += rr.Result.Metrics["sim.events"]
	}
	rec.TraceHash = foldTraceHashes(last)
	if sec := wall.Seconds(); sec > 0 {
		rec.EventsPerSec = events / sec
	}
	return rec, nil
}

// traceHash recomposes the engine fingerprint halves a Result's metrics carry
// into the hex form the baseline stores.
func traceHash(r ccsvm.Result) string {
	hi := uint64(r.Metrics["sim.trace_hash_hi"])
	lo := uint64(r.Metrics["sim.trace_hash_lo"])
	return fmt.Sprintf("%016x", hi<<32|lo)
}

// foldTraceHashes reduces a sweep's per-run fingerprints, in spec order, to
// one order-sensitive hash for the scaling records.
func foldTraceHashes(results []ccsvm.RunResult) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, rr := range results {
		hi := uint64(rr.Result.Metrics["sim.trace_hash_hi"])
		lo := uint64(rr.Result.Metrics["sim.trace_hash_lo"])
		binary.BigEndian.PutUint64(buf[:], hi<<32|lo)
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

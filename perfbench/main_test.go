package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ccsvm"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	doc, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(doc, &bm); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bm.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !slices.Equal(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, ours)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range bm.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range bm.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// sameMetrics compares emitted metrics with declared names and units, in
// both directions.
func sameMetrics(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, m := range got {
		if u, ok := want[name]; !ok {
			t.Errorf("%s: emitted %s is not declared in BENCHMARK.json", what, name)
		} else if u != m.Unit {
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, name, m.Unit, u)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: BENCHMARK.json declares %s, which is not emitted", what, name)
		}
	}
}

// TestWorkloadsRunOneRep runs every workload for a single rep and checks
// that every run verified and the end-to-end metrics are the declared ones.
func TestWorkloadsRunOneRep(t *testing.T) {
	endToEnd, _ := declared(t)
	for i := range workloads {
		wl := &workloads[i]
		t.Run(wl.name, func(t *testing.T) {
			var failures bytes.Buffer
			det, res, err := bench(wl, options{seed: 42}, &failures)
			if err != nil {
				t.Fatal(err)
			}
			if det.Reps != 1 {
				t.Errorf("ran %d reps with no time budget, want 1", det.Reps)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted != (coldPasses+1)*len(det.Specs) {
				t.Errorf("correct=%v attempted=%d failed=%d, failures:\n%s", res.Correct, res.Attempted, res.Failed, failures.String())
			}
			sameMetrics(t, wl.name, res.Metrics, endToEnd)
			for name, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("%s = %v, want > 0", name, m.Value)
				}
			}
		})
	}
}

// TestTracedRun checks the traced run: the per-layer metrics are the
// declared ones, and spans.json and cpu.pprof are written.
func TestTracedRun(t *testing.T) {
	_, perLayer := declared(t)
	wl, err := lookupWorkload("sweep-small")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	_, res, err := bench(wl, options{seed: 42, traced: true, traceDir: dir}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("traced run failed %d of %d runs", res.Failed, res.Attempted)
	}
	sameMetrics(t, "traced", res.Metrics, perLayer)
	for _, name := range []string{"sim.dispatch_ns_per_event", "exec.switch_ns_per_op", "coherence.miss_ns.mesi", "noc.ns_per_hop", "core.build_us"} {
		if !(res.Metrics[name].Value > 0) {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
	if fi, err := os.Stat(filepath.Join(dir, "cpu.pprof")); err != nil || fi.Size() == 0 {
		t.Errorf("cpu.pprof not written: %v", err)
	}
	doc, err := os.ReadFile(filepath.Join(dir, "spans.json"))
	if err != nil {
		t.Fatal(err)
	}
	var trace struct{ TraceEvents []chromeEvent }
	if err := json.Unmarshal(doc, &trace); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, ev := range trace.TraceEvents {
		kinds[strings.Fields(ev.Name)[0]]++
		if ev.Args["id"] == 0 || ev.Dur < 0 {
			t.Errorf("bad span %+v", ev)
		}
	}
	if kinds["rep"] != 1 || kinds["run"] != 54 || kinds["probe"] != 13*probeRepeats || kinds["probes"] != 1 {
		t.Errorf("span counts %v", kinds)
	}
}

// TestPaperSeriesMatchBaseline pins the paper workloads at seed 42 to the
// committed baseline: every series' simulated time, event count and trace
// hash equals the BENCH_*.json record of the same name.
func TestPaperSeriesMatchBaseline(t *testing.T) {
	doc, err := os.ReadFile("../BENCH_2026-08-07-fused.json")
	if err != nil {
		t.Fatal(err)
	}
	var base struct {
		Series []struct {
			Name      string  `json:"name"`
			SimTimePs int64   `json:"sim_time_ps"`
			SimEvents float64 `json:"sim_events"`
			TraceHash string  `json:"trace_hash"`
		}
	}
	if err := json.Unmarshal(doc, &base); err != nil {
		t.Fatal(err)
	}
	registerShims()
	matched := 0
	for _, name := range []string{"paper-ccsvm", "paper-apu"} {
		wl, _ := lookupWorkload(name)
		specs, err := wl.specs(42)
		if err != nil {
			t.Fatal(err)
		}
		var runs []ccsvm.RunSpec
		for _, s := range specs {
			runs = append(runs, s.run)
		}
		shimLog.arm(name, specs, nil, 0)
		results, err := (&ccsvm.Runner{Parallel: 1}).Run(runs)
		if err != nil {
			t.Fatal(err)
		}
		for i, rr := range results {
			for _, b := range base.Series {
				if b.Name != specs[i].label {
					continue
				}
				matched++
				got := fmt.Sprintf("%d %.0f %016x", rr.Result.Time, rr.Result.Metrics["sim.events"], traceHash(rr.Result))
				want := fmt.Sprintf("%d %.0f %s", b.SimTimePs, b.SimEvents, b.TraceHash)
				if got != want {
					t.Errorf("%s: got %s, baseline %s", b.Name, got, want)
				}
			}
		}
	}
	if matched != len(paperSeries) {
		t.Errorf("matched %d baseline series, want %d", matched, len(paperSeries))
	}
}

// TestCheckCountsFailures feeds check each kind of bad run.
func TestCheckCountsFailures(t *testing.T) {
	ok := ccsvm.Result{Checked: true, Metrics: map[string]float64{"sim.trace_hash_hi": 1, "sim.trace_hash_lo": 2}}
	other := ccsvm.Result{Checked: true, Metrics: map[string]float64{"sim.trace_hash_hi": 1, "sim.trace_hash_lo": 3}}
	var log bytes.Buffer
	s := &session{
		specs:    []spec{{label: "a"}, {label: "b"}, {label: "c"}, {label: "d"}},
		ref:      []uint64{1<<32 | 2, 1<<32 | 2, 1<<32 | 2, 1<<32 | 2},
		failures: &log,
	}
	s.check([]ccsvm.RunResult{
		{Result: ok},
		{Err: errors.New("boom")},
		{Result: ccsvm.Result{Metrics: ok.Metrics}},
		{Result: other},
	})
	if s.attempted != 4 || s.failed != 3 {
		t.Errorf("attempted=%d failed=%d, want 4 and 3", s.attempted, s.failed)
	}
	for _, want := range []string{"run b: boom", "run c: output not verified", "run d: trace hash"} {
		if !strings.Contains(log.String(), want) {
			t.Errorf("failure log lacks %q:\n%s", want, log.String())
		}
	}
}

// TestTailPercentile checks that the helper picks the highest percentile
// with at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
	}{
		{10000, 99.9, 10},
		{1000, 99, 10},
		{999, 95, 49},
		{200, 95, 10},
		{100, 90, 10},
		{99, 75, 24},
		{20, 50, 10},
		{10, 50, 5},
	} {
		p, beyond := tailPercentile(c.n)
		if p != c.p || beyond != c.beyond {
			t.Errorf("tailPercentile(%d) = %v, %d; want %v, %d", c.n, p, beyond, c.p, c.beyond)
		}
	}
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := percentile(xs, 90); got != 9 {
		t.Errorf("p90 of 1..10 = %v, want 9", got)
	}
	// statistics.quantiles(range(1, 11), n=4) in Python.
	if q1, q2, q3 := quartiles(xs); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestFlagErrors checks that bad invocations exit non-zero without a result.
func TestFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "paper-ccsvm", "--trace", "2"},
		{"--workload", "paper-ccsvm", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

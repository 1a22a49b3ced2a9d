package ccsvm_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"ccsvm"
)

// The metrics golden pins every Result.Metrics key and value of a small
// design-space sweep: every registered (workload, system) pair on every
// preset at N=8, density 0.1, seed 42. The machines derive their metrics
// from component counters; this fixture is what proves that a change to how
// the counters are kept or summed reports exactly the same numbers. The
// comparison is on float64 bits. Regenerate it only for a change that means
// to move a metric, via
//
//	go test -run TestGoldenMetrics -update-metrics .

var updateMetrics = flag.Bool("update-metrics", false,
	"rewrite testdata/metrics_golden.json from the current simulator")

// goldenMetricsPath is the committed fixture location.
const goldenMetricsPath = "testdata/metrics_golden.json"

// goldenRun is one committed run: its spec label and every metric it
// reported.
type goldenRun struct {
	Spec    string             `json:"spec"`
	Metrics map[string]float64 `json:"metrics"`
}

// metricsSweep is the fixture's spec list, labelled workload/system@preset.
func metricsSweep(t *testing.T) ([]string, []ccsvm.RunSpec) {
	t.Helper()
	p := ccsvm.Params{N: 8, Density: 0.1, Seed: 42}
	var labels []string
	var specs []ccsvm.RunSpec
	for _, pr := range ccsvm.Presets() {
		for _, kind := range pr.Kinds() {
			for _, w := range ccsvm.Workloads() {
				if !w.Supports(kind) {
					continue
				}
				rs, err := ccsvm.BuildSpec(w.Name, kind, pr.Name, nil, p)
				if err != nil {
					t.Fatalf("%s/%s@%s: %v", w.Name, kind, pr.Name, err)
				}
				labels = append(labels, fmt.Sprintf("%s/%s@%s", w.Name, kind, pr.Name))
				specs = append(specs, rs)
			}
		}
	}
	return labels, specs
}

// runMetricsSweep runs the fixture's spec list and returns one goldenRun per
// spec, in spec order.
func runMetricsSweep(t *testing.T) []goldenRun {
	t.Helper()
	labels, specs := metricsSweep(t)
	results, err := (&ccsvm.Runner{}).Run(specs)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	out := make([]goldenRun, len(results))
	for i, rr := range results {
		if rr.Err != nil {
			t.Fatalf("%s: %v", labels[i], rr.Err)
		}
		out[i] = goldenRun{Spec: labels[i], Metrics: rr.Result.Metrics}
	}
	return out
}

// readMetricsGolden loads the committed fixture.
func readMetricsGolden(t *testing.T) []goldenRun {
	t.Helper()
	raw, err := os.ReadFile(goldenMetricsPath)
	if err != nil {
		t.Fatalf("read fixture (generate with -update-metrics): %v", err)
	}
	var runs []goldenRun
	if err := json.Unmarshal(raw, &runs); err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	return runs
}

// TestGoldenMetrics requires every run of the sweep to report exactly the
// committed keys with bit-identical values.
func TestGoldenMetrics(t *testing.T) {
	current := runMetricsSweep(t)
	if *updateMetrics {
		raw, err := json.MarshalIndent(current, "", "  ")
		if err != nil {
			t.Fatalf("marshal fixture: %v", err)
		}
		if err := os.WriteFile(goldenMetricsPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatalf("write fixture: %v", err)
		}
		t.Logf("rewrote %s with %d runs", goldenMetricsPath, len(current))
		return
	}
	committed := readMetricsGolden(t)
	if len(committed) != len(current) {
		t.Fatalf("sweep has %d runs, fixture has %d", len(current), len(committed))
	}
	for i, got := range current {
		want := committed[i]
		if got.Spec != want.Spec {
			t.Errorf("run %d is %s, fixture has %s", i, got.Spec, want.Spec)
			continue
		}
		keys := make([]string, 0, len(got.Metrics)+len(want.Metrics))
		for k := range got.Metrics {
			keys = append(keys, k)
		}
		for k := range want.Metrics {
			if _, ok := got.Metrics[k]; !ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			g, gok := got.Metrics[k]
			w, wok := want.Metrics[k]
			switch {
			case !wok:
				t.Errorf("%s: new metric %s = %v", got.Spec, k, g)
			case !gok:
				t.Errorf("%s: metric %s (fixture %v) is missing", got.Spec, k, w)
			case math.Float64bits(g) != math.Float64bits(w):
				t.Errorf("%s: %s = %v, fixture has %v", got.Spec, k, g, w)
			}
		}
	}
}

// TestArchitectureMetricsTable checks that the key table of ARCHITECTURE.md
// "Per-run machine metrics" lists exactly the metric keys the machines
// report: the union of the keys over the golden fixture's runs.
func TestArchitectureMetricsTable(t *testing.T) {
	raw, err := os.ReadFile("ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "\n## Per-run machine metrics\n")
	if !ok {
		t.Fatal(`ARCHITECTURE.md has no "Per-run machine metrics" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	documented := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || !strings.Contains(cells[1], "`") {
			continue
		}
		// The key column holds one or more `key`s; odd fields sit inside
		// backticks.
		for i, field := range strings.Split(cells[1], "`") {
			if i%2 == 1 {
				documented[field] = true
			}
		}
	}
	reported := map[string]bool{}
	for _, run := range readMetricsGolden(t) {
		for k := range run.Metrics {
			reported[k] = true
		}
	}
	for k := range reported {
		if !documented[k] {
			t.Errorf("metric %s is reported but not in the ARCHITECTURE.md table", k)
		}
	}
	for k := range documented {
		if !reported[k] {
			t.Errorf("ARCHITECTURE.md documents metric %s, which no run reports", k)
		}
	}
}

package ccsvm_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"strconv"
	"strings"
	"testing"

	"ccsvm"
)

// overrideSweepSpecs builds a small lane-count sweep through the preset and
// override layers: the ccsvm-small preset with three different MTTOP issue
// widths on two workloads.
func overrideSweepSpecs(t *testing.T) []ccsvm.RunSpec {
	t.Helper()
	p, ok := ccsvm.LookupPreset("ccsvm-small")
	if !ok {
		t.Fatal("ccsvm-small preset not registered")
	}
	var specs []ccsvm.RunSpec
	for _, width := range []int{4, 8, 16} {
		for _, wl := range []string{"vectoradd", "matmul"} {
			sys, err := p.System(ccsvm.SystemCCSVM)
			if err != nil {
				t.Fatal(err)
			}
			if err := ccsvm.Override(&sys, "ccsvm.MTTOPIssueWidth", strconv.Itoa(width)); err != nil {
				t.Fatal(err)
			}
			specs = append(specs, ccsvm.RunSpec{
				Workload: wl,
				System:   sys,
				Params:   ccsvm.Params{N: 12, Seed: 7, Density: 0.05},
				Tag:      "w" + strconv.Itoa(width),
			})
		}
	}
	return specs
}

// TestOverrideSweepParallelDeterminism requires a sweep built from presets
// plus overrides to produce byte-identical JSONL at parallel=1 and
// parallel=4, and the issue-width override to actually change the machine.
func TestOverrideSweepParallelDeterminism(t *testing.T) {
	specs := overrideSweepSpecs(t)
	var seqJSON, parJSON bytes.Buffer
	seq, err := (&ccsvm.Runner{Parallel: 1, Sinks: []ccsvm.Sink{ccsvm.NewJSONLSink(&seqJSON)}}).Run(specs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&ccsvm.Runner{Parallel: 4, Sinks: []ccsvm.Sink{ccsvm.NewJSONLSink(&parJSON)}}).Run(specs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqJSON.Bytes(), parJSON.Bytes()) {
		t.Error("JSONL output differs between parallel=1 and parallel=4 for an override sweep")
	}
	// Width 4 and width 16 must give different simulated times for the same
	// workload — otherwise the override silently did nothing.
	if seq[0].Result.Time == seq[4].Result.Time {
		t.Errorf("issue width 4 and 16 gave identical times (%v); override had no effect", seq[0].Result.Time)
	}
}

// TestMetricsSurfacedBySinks requires per-run machine metrics on results and
// in both sink formats.
func TestMetricsSurfacedBySinks(t *testing.T) {
	sys, err := ccsvm.LookupPresetSystem("ccsvm-small", ccsvm.SystemCCSVM)
	if err != nil {
		t.Fatal(err)
	}
	specs := []ccsvm.RunSpec{{Workload: "vectoradd", System: sys, Params: ccsvm.Params{N: 16, Seed: 7}}}
	var jsonl, text bytes.Buffer
	runner := &ccsvm.Runner{Sinks: []ccsvm.Sink{ccsvm.NewJSONLSink(&jsonl), ccsvm.NewTextSink(&text, "metrics probe")}}
	res, err := runner.Run(specs)
	if err != nil {
		t.Fatal(err)
	}
	m := res[0].Result.Metrics
	for _, key := range []string{"l1.hit_rate", "noc.messages", "dram.reads", "mifd.tasks", "mttop.instructions"} {
		if _, ok := m[key]; !ok {
			t.Errorf("CCSVM run missing metric %q (have %v)", key, m)
		}
	}
	if m["mifd.tasks"] < 1 {
		t.Errorf("mifd.tasks = %v, want >= 1", m["mifd.tasks"])
	}
	if rate := m["l1.hit_rate"]; rate <= 0 || rate > 1 {
		t.Errorf("l1.hit_rate = %v, want in (0, 1]", rate)
	}

	var rec struct {
		Metrics map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal(jsonl.Bytes(), &rec); err != nil {
		t.Fatalf("JSONL line not valid JSON: %v", err)
	}
	if len(rec.Metrics) == 0 {
		t.Errorf("JSONL record carries no metrics: %s", jsonl.String())
	}
	if !strings.Contains(text.String(), "L1 hit%") {
		t.Errorf("text table has no machine-metric columns:\n%s", text.String())
	}

	// An APU-machine run reports the OpenCL overhead breakdown.
	apuSys, err := ccsvm.LookupPresetSystem("apu-base", ccsvm.SystemOpenCL)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := ccsvm.Lookup("vectoradd")
	r, err := w.Run(apuSys, ccsvm.Params{N: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"opencl.init_us", "opencl.staging_us", "opencl.launch_us"} {
		if r.Metrics[key] <= 0 {
			t.Errorf("OpenCL run metric %q = %v, want > 0", key, r.Metrics[key])
		}
	}
	if _, ok := r.Metrics["gpu.read_hit_rate"]; !ok {
		t.Errorf("OpenCL run missing metric gpu.read_hit_rate (have %v)", r.Metrics)
	}
}

// TestFacadeOverrideErrors exercises the typed sentinels through the facade,
// then requires the whole override surface to resolve: every enumerated path
// of both machines, string paths included, takes a valid value of its type
// through BuildSpec, and every coherence protocol applies on every CCSVM
// preset.
func TestFacadeOverrideErrors(t *testing.T) {
	sys := ccsvm.MustSystem(ccsvm.SystemCCSVM)
	if err := ccsvm.Override(&sys, "ccsvm.NoSuchKnob", "1"); !errors.Is(err, ccsvm.ErrUnknownPath) {
		t.Errorf("unknown path: err = %v, want ErrUnknownPath", err)
	}
	if err := ccsvm.Override(&sys, "ccsvm.NumCPUs", "lots"); !errors.Is(err, ccsvm.ErrBadValue) {
		t.Errorf("bad value: err = %v, want ErrBadValue", err)
	}
	if err := ccsvm.ApplyOverrides(&sys, []string{"ccsvm.NumCPUs=0"}); !errors.Is(err, ccsvm.ErrOutOfRange) {
		t.Errorf("out of range: err = %v, want ErrOutOfRange", err)
	}
	if len(ccsvm.OverridePaths(ccsvm.MachineAPU)) == 0 {
		t.Error("OverridePaths(apu) is empty")
	}

	// A structurally valid value for each declared type (the " type" suffix
	// of OverridePaths entries); integer kinds take "2", byte sizes a size
	// every cache geometry and the APU's heap accept, and the protocol enum
	// needs a real member.
	values := map[string]string{"bool": "true", "duration": "5ns", "float64": "0.5", "string": "golden"}
	p := ccsvm.DefaultParams()
	for _, machine := range []struct {
		kind ccsvm.MachineKind
		sys  ccsvm.SystemKind
	}{{ccsvm.MachineCCSVM, ccsvm.SystemCCSVM}, {ccsvm.MachineAPU, ccsvm.SystemCPU}} {
		for _, pathType := range ccsvm.OverridePaths(machine.kind) {
			path, typ, ok := strings.Cut(pathType, " ")
			if !ok {
				t.Fatalf("override path %q has no type suffix", pathType)
			}
			value, ok := values[typ]
			if !ok {
				value = "2"
			}
			switch {
			case strings.HasSuffix(path, ".Coherence.Protocol"):
				value = "mesi"
			case strings.HasSuffix(path, ".DRAM.SizeBytes"):
				value = "4294967296"
			case strings.HasSuffix(path, "Bytes"):
				value = "65536"
			}
			override := path + "=" + value
			if _, err := ccsvm.BuildSpec("matmul", machine.sys, "", []string{override}, p); err != nil {
				t.Errorf("override %s does not resolve: %v", override, err)
			}
		}
	}
	for _, pr := range ccsvm.Presets() {
		if pr.Machine != ccsvm.MachineCCSVM {
			continue
		}
		for _, proto := range ccsvm.Protocols() {
			override := "ccsvm.coherence.protocol=" + proto
			if _, err := ccsvm.BuildSpec("matmul", ccsvm.SystemCCSVM, pr.Name, []string{override}, p); err != nil {
				t.Errorf("%s on preset %s does not resolve: %v", override, pr.Name, err)
			}
		}
	}
}

// TestSmallNumericOverridesNeverPanic sweeps the values 1, 2, 3 and 5 over
// every numeric override path of both machines, on every workload and
// system the path's machine runs, at N = 8 and under a 2-ms simulated
// budget (the OpenCL runs with their platform set-up costs waived, so their
// kernels run). Validate must reject every value that makes a machine
// panic, such as a cache too small for one line or a line count its
// associativity does not divide: each spec BuildSpec accepts ends in a
// result or a typed error, never an ErrSimulationPanic.
func TestSmallNumericOverridesNeverPanic(t *testing.T) {
	numeric := map[string]bool{"int": true, "int64": true, "uint64": true, "float64": true}
	p := ccsvm.Params{N: 8, Density: 0.1, Seed: 42}
	var specs []ccsvm.RunSpec
	rejected := 0
	for _, machine := range []struct {
		kind    ccsvm.MachineKind
		systems []ccsvm.SystemKind
		budget  []string
	}{
		{ccsvm.MachineCCSVM, []ccsvm.SystemKind{ccsvm.SystemCCSVM}, []string{"ccsvm.MaxSimulatedTime=2ms"}},
		{ccsvm.MachineAPU, []ccsvm.SystemKind{ccsvm.SystemCPU, ccsvm.SystemOpenCL, ccsvm.SystemPthreads},
			[]string{"apu.MaxSimulatedTime=2ms", "apu.OpenCL.PlatformInit=0ns", "apu.OpenCL.ProgramBuild=0ns"}},
	} {
		for _, pathType := range ccsvm.OverridePaths(machine.kind) {
			path, typ, _ := strings.Cut(pathType, " ")
			if !numeric[typ] {
				continue
			}
			for _, v := range []string{"1", "2", "3", "5"} {
				overrides := append([]string{path + "=" + v}, machine.budget...)
				for _, w := range ccsvm.Workloads() {
					for _, kind := range machine.systems {
						if !w.Supports(kind) {
							continue
						}
						spec, err := ccsvm.BuildSpec(w.Name, kind, "", overrides, p)
						if errors.Is(err, ccsvm.ErrOutOfRange) {
							rejected++
							continue
						}
						if err != nil {
							t.Fatalf("%s on %s/%s: %v", overrides, w.Name, kind, err)
						}
						specs = append(specs, spec)
					}
				}
			}
		}
	}
	if len(specs) == 0 || rejected == 0 {
		t.Fatalf("sweep built %d specs and rejected %d, want some of each", len(specs), rejected)
	}
	results, _ := (&ccsvm.Runner{Parallel: 2}).Run(specs)
	for _, rr := range results {
		var pe *ccsvm.ErrSimulationPanic
		if errors.As(rr.Err, &pe) {
			t.Errorf("%s panicked: %v", rr.Spec, pe.Value)
		}
	}
}

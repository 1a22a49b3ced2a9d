package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ccsvm"
)

// TestPanickingRunFailsWithOneLine: a machine whose DRAM passes validation
// but is too small for the workload's data panics mid-run. The command must
// report it as one error line naming the spec, with no stack trace, and
// exit 1. matmul takes no density, so the spec names none.
func TestPanickingRunFailsWithOneLine(t *testing.T) {
	for _, c := range []struct {
		system, set, panic string
	}{
		{"ccsvm", "ccsvm.DRAM.SizeBytes=69632", "kernelos: out of physical memory (17 frames)"},
		{"opencl", "apu.DRAM.SizeBytes=1073745920", "apu: heap exhausted"},
	} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-workload", "matmul", "-system", c.system, "-n", "32", "-set", c.set}, &stdout, &stderr)
		want := "ccsvm-sim: matmul/" + c.system + "(n=32 seed=42 " + c.set + "): simulation panicked: " + c.panic + "\n"
		if code != 1 || stdout.Len() != 0 || stderr.String() != want {
			t.Errorf("-system %s -set %s: exit %d, stdout %q, stderr %q; want exit 1, no output and %q",
				c.system, c.set, code, stdout.String(), stderr.String(), want)
		}
	}
}

// TestCleanRunPrintsTheDirectRun: run goes through a one-worker Runner, so
// its machine draws on an arena; a clean run must print what the workload
// returns when called directly on a fresh machine, as JSON and in text. The
// spec carries the -density default only for a workload that takes a
// density, and the overrides as provenance.
func TestCleanRunPrintsTheDirectRun(t *testing.T) {
	for _, c := range []struct {
		workload string
		kind     ccsvm.SystemKind
		sets     []string
		density  float64
	}{
		{"matmul", ccsvm.SystemCCSVM, []string{"ccsvm.MTTOPIssueWidth=16"}, 0},
		{"matmul", ccsvm.SystemOpenCL, nil, 0},
		{"sparse", ccsvm.SystemCPU, nil, 0.01},
	} {
		args := []string{"-workload", c.workload, "-system", string(c.kind), "-n", "8"}
		for _, s := range c.sets {
			args = append(args, "-set", s)
		}
		w, _ := ccsvm.Lookup(c.workload)
		sys, err := ccsvm.NewSystem(c.kind)
		if err != nil {
			t.Fatal(err)
		}
		if err := ccsvm.ApplyOverrides(&sys, c.sets); err != nil {
			t.Fatal(err)
		}
		params := ccsvm.Params{N: 8, Density: c.density, Seed: 42}
		res, err := w.Run(sys, params)
		if err != nil {
			t.Fatal(err)
		}

		var stdout, stderr bytes.Buffer
		if code := run(append(args, "-json"), &stdout, &stderr); code != 0 {
			t.Fatalf("%v -json: exit %d, stderr %q", args, code, stderr.String())
		}
		var want bytes.Buffer
		spec := ccsvm.RunSpec{Workload: c.workload, System: sys, Params: params, Overrides: c.sets}
		if err := ccsvm.NewJSONLSink(&want).Emit(ccsvm.RunResult{Spec: spec, Result: res}); err != nil {
			t.Fatal(err)
		}
		if stdout.String() != want.String() {
			t.Errorf("%v -json printed\n%s\nwant the direct run's\n%s", args, stdout.String(), want.String())
		}

		stdout.Reset()
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d, stderr %q", args, code, stderr.String())
		}
		head := fmt.Sprintf("workload:      %s (n=8)\nsystem:        %s\n", c.workload, res.Label)
		for _, s := range c.sets {
			head += "override:      " + s + "\n"
		}
		head += fmt.Sprintf("measured time: %v\nDRAM accesses: %d\nverified:      %v\nmachine metrics:\n", res.Time, res.DRAMAccesses, res.Checked)
		if !strings.HasPrefix(stdout.String(), head) {
			t.Errorf("%v printed\n%s\nwant it to start with the direct run's\n%s", args, stdout.String(), head)
		}
	}
}

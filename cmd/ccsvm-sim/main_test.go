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
// exit 1.
func TestPanickingRunFailsWithOneLine(t *testing.T) {
	for _, c := range []struct {
		system, set, panic string
	}{
		{"ccsvm", "ccsvm.DRAM.SizeBytes=69632", "kernelos: out of physical memory (17 frames)"},
		{"opencl", "apu.DRAM.SizeBytes=1073745920", "apu: heap exhausted"},
	} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-workload", "matmul", "-system", c.system, "-n", "32", "-set", c.set}, &stdout, &stderr)
		msg := stderr.String()
		want := "ccsvm-sim: matmul/" + c.system + "("
		if code != 1 || stdout.Len() != 0 || strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, want) ||
			!strings.HasSuffix(msg, "): simulation panicked: "+c.panic+"\n") || strings.Contains(msg, "goroutine ") {
			t.Errorf("-system %s -set %s: exit %d, stdout %q, stderr %q; want exit 1, no output and one line %q...%q",
				c.system, c.set, code, stdout.String(), msg, want, "simulation panicked: "+c.panic)
		}
	}
}

// TestCleanRunPrintsTheDirectRun: run goes through a one-worker Runner, so
// its machine draws on an arena; a clean run must print what the workload
// returns when called directly on a fresh machine, as JSON and in text.
func TestCleanRunPrintsTheDirectRun(t *testing.T) {
	for _, c := range []struct {
		kind ccsvm.SystemKind
		sets []string
	}{
		{ccsvm.SystemCCSVM, []string{"ccsvm.MTTOPIssueWidth=16"}},
		{ccsvm.SystemOpenCL, nil},
	} {
		args := []string{"-workload", "matmul", "-system", string(c.kind), "-n", "8"}
		for _, s := range c.sets {
			args = append(args, "-set", s)
		}
		w, _ := ccsvm.Lookup("matmul")
		sys, err := ccsvm.NewSystem(c.kind)
		if err != nil {
			t.Fatal(err)
		}
		if err := ccsvm.ApplyOverrides(&sys, c.sets); err != nil {
			t.Fatal(err)
		}
		params := ccsvm.Params{N: 8, Density: 0.01, Seed: 42}
		res, err := w.Run(sys, params)
		if err != nil {
			t.Fatal(err)
		}

		var stdout, stderr bytes.Buffer
		if code := run(append(args, "-json"), &stdout, &stderr); code != 0 {
			t.Fatalf("%v -json: exit %d, stderr %q", args, code, stderr.String())
		}
		var want bytes.Buffer
		spec := ccsvm.RunSpec{Workload: "matmul", System: sys, Params: params, Tag: strings.Join(c.sets, " ")}
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
		head := fmt.Sprintf("workload:      matmul (n=8)\nsystem:        %s\n", res.Label)
		for _, s := range c.sets {
			head += "override:      " + s + "\n"
		}
		head += fmt.Sprintf("measured time: %v\nDRAM accesses: %d\nverified:      %v\nmachine metrics:\n", res.Time, res.DRAMAccesses, res.Checked)
		if !strings.HasPrefix(stdout.String(), head) {
			t.Errorf("%v printed\n%s\nwant it to start with the direct run's\n%s", args, stdout.String(), head)
		}
	}
}

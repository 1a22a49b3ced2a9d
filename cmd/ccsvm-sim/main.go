// Command ccsvm-sim runs one benchmark on one simulated system and prints its
// measured time, off-chip traffic, verification status, and per-run machine
// metrics. It is the single-experiment companion to cmd/paper-figs, and is
// entirely registry-driven: every workload, system, and machine preset it can
// run comes from the ccsvm facade, so a newly registered workload or preset
// shows up here with no CLI changes.
//
// Usage:
//
//	ccsvm-sim -list                                  # workloads, pairs, and presets
//	ccsvm-sim -list-paths                            # every -set'able config path
//	ccsvm-sim -workload matmul -system ccsvm -n 64
//	ccsvm-sim -workload apsp   -system opencl -n 32 -json
//	ccsvm-sim -workload sparse -system cpu -n 96 -density 0.02
//
// Design-space exploration:
//
//	ccsvm-sim -workload matmul -preset ccsvm-wide -n 64
//	ccsvm-sim -workload matmul -system ccsvm -set ccsvm.MTTOPIssueWidth=16 -set ccsvm.DRAM.Latency=50ns
//	ccsvm-sim -workload apsp -preset apu-fast-driver -system opencl -n 32
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"ccsvm"
)

// setFlags collects repeated -set path=value assignments.
type setFlags []string

func (s *setFlags) String() string { return fmt.Sprint(*s) }
func (s *setFlags) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, writes the report to stdout and
// diagnostics to stderr, and returns the exit status: 2 for a bad command
// line or a spec that does not resolve (an unknown name, an unsupported
// pair, a bad override), 1 for a run that failed or panicked.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ccsvm-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "matmul", "workload name (see -list)")
	system := fs.String("system", "", "system kind: ccsvm, cpu, opencl, or pthreads (default: the preset's first kind, or ccsvm)")
	preset := fs.String("preset", "", "machine preset to start from (see -list); default is the system's Table 2 configuration")
	var sets setFlags
	fs.Var(&sets, "set", "override one configuration field, e.g. -set ccsvm.MTTOPIssueWidth=16 (repeatable; see -list-paths)")
	n := fs.Int("n", 32, "problem size (matrix dimension, vertices, bodies, or elements)")
	density := fs.Float64("density", 0.01, "non-zero density for the sparse workload")
	seed := fs.Int64("seed", 42, "input seed")
	includeInit := fs.Bool("opencl-init", false, "include OpenCL platform init and JIT in the measured region")
	list := fs.Bool("list", false, "list every runnable (workload, system) pair and machine preset, then exit")
	listPaths := fs.Bool("list-paths", false, "list every -set'able configuration path, then exit")
	asJSON := fs.Bool("json", false, "emit the result as one JSON line instead of text")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		fmt.Fprintln(stdout, "workloads:")
		for _, w := range ccsvm.Workloads() {
			fmt.Fprintf(stdout, "  %-10s %s\n", w.Name, w.Description)
			for _, kind := range w.SystemKinds() {
				fmt.Fprintf(stdout, "               %s/%s\n", w.Name, kind)
			}
		}
		fmt.Fprintln(stdout, "presets:")
		for _, p := range ccsvm.Presets() {
			fmt.Fprintf(stdout, "  %-18s [%s] %s\n", p.Name, p.Machine, p.Description)
		}
		fmt.Fprintln(stdout, "coherence protocols (-set ccsvm.coherence.protocol=...):")
		for _, name := range ccsvm.Protocols() {
			fmt.Fprintf(stdout, "  %s\n", name)
		}
		return 0
	}
	if *listPaths {
		for _, machine := range []ccsvm.MachineKind{ccsvm.MachineCCSVM, ccsvm.MachineAPU} {
			for _, p := range ccsvm.OverridePaths(machine) {
				fmt.Fprintln(stdout, p)
			}
		}
		return 0
	}

	kind := ccsvm.SystemKind(*system)
	if kind == "" && *preset == "" {
		kind = ccsvm.SystemCCSVM
	}
	params := ccsvm.Params{N: *n, Seed: *seed, IncludeInit: *includeInit}
	if w, ok := ccsvm.Lookup(*workload); ok && w.UsesDensity {
		params.Density = *density
	}
	spec, err := ccsvm.BuildSpec(*workload, kind, *preset, sets, params)
	if err != nil {
		hint := ""
		if errors.Is(err, ccsvm.ErrUnknownWorkload) || errors.Is(err, ccsvm.ErrUnknownPreset) {
			hint = "; -list shows the registry"
		}
		fmt.Fprintf(stderr, "ccsvm-sim: %v%s\n", err, hint)
		return 2
	}

	// A one-worker Runner recovers a run that panics into an error naming
	// the spec, as it does in a sweep.
	results, err := (&ccsvm.Runner{Parallel: 1}).Run([]ccsvm.RunSpec{spec})
	if err != nil {
		fmt.Fprintf(stderr, "ccsvm-sim: %v\n", err)
		return 1
	}

	if *asJSON {
		if err := ccsvm.NewJSONLSink(stdout).Emit(results[0]); err != nil {
			fmt.Fprintf(stderr, "ccsvm-sim: %v\n", err)
			return 1
		}
		return 0
	}
	res := results[0].Result
	fmt.Fprintf(stdout, "workload:      %s (n=%d)\n", spec.Workload, *n)
	fmt.Fprintf(stdout, "system:        %s\n", res.Label)
	if *preset != "" {
		fmt.Fprintf(stdout, "preset:        %s\n", *preset)
	}
	for _, s := range sets {
		fmt.Fprintf(stdout, "override:      %s\n", s)
	}
	fmt.Fprintf(stdout, "measured time: %v\n", res.Time)
	fmt.Fprintf(stdout, "DRAM accesses: %d\n", res.DRAMAccesses)
	fmt.Fprintf(stdout, "verified:      %v\n", res.Checked)
	if len(res.Metrics) > 0 {
		fmt.Fprintln(stdout, "machine metrics:")
		keys := make([]string, 0, len(res.Metrics))
		for k := range res.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(stdout, "  %-24s %.6g\n", k, res.Metrics[k])
		}
	}
	return 0
}

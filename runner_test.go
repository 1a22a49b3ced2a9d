package ccsvm_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ccsvm"
	"ccsvm/internal/core"
	"ccsvm/internal/simarena"
	"ccsvm/internal/xthreads"
)

// TestRunSpecStringIncludesTag is the regression test for indistinguishable
// sweep rows: two specs that differ only by Tag (the preset/override
// identity) must stringify differently so Runner.Run error messages identify
// the exact failing run.
func TestRunSpecStringIncludesTag(t *testing.T) {
	base := ccsvm.RunSpec{Workload: "matmul", System: smallSystem(t, ccsvm.SystemCCSVM), Params: ccsvm.Params{N: 16, Seed: 1}}
	wide := base
	wide.Tag = "ccsvm-wide"
	if base.String() == wide.String() {
		t.Fatalf("specs differing only by Tag stringify identically: %s", base)
	}
	if !strings.Contains(wide.String(), "ccsvm-wide") {
		t.Fatalf("String() = %q, want the tag in it", wide.String())
	}
	if strings.Contains(base.String(), "tag=") {
		t.Fatalf("untagged String() = %q, should omit the tag field", base.String())
	}
}

// failingSink errors on chosen Emit indices and optionally on Close, to
// exercise the Runner's error joining.
type failingSink struct {
	failEmitAt int // Emit index to fail at; -1 disables
	failClose  bool
	emits      int
	closed     bool
}

func (s *failingSink) Emit(ccsvm.RunResult) error {
	i := s.emits
	s.emits++
	if i == s.failEmitAt {
		return fmt.Errorf("emit %d exploded", i)
	}
	return nil
}

func (s *failingSink) Close() error {
	s.closed = true
	if s.failClose {
		return errors.New("close exploded")
	}
	return nil
}

// TestRunnerJoinsSinkAndRunErrors checks every failure path of Runner.Run at
// once: a failing run, a failing sink Emit, and a failing sink Close must all
// surface in the joined error, while healthy sinks still see every result.
func TestRunnerJoinsSinkAndRunErrors(t *testing.T) {
	specs := []ccsvm.RunSpec{
		{Workload: "vectoradd", System: smallSystem(t, ccsvm.SystemCCSVM), Params: tinyParams("vectoradd")},
		{Workload: "no-such-workload", System: smallSystem(t, ccsvm.SystemCPU), Params: ccsvm.Params{N: 4}, Tag: "bad-row"},
		{Workload: "sparse", System: smallSystem(t, ccsvm.SystemCCSVM), Params: tinyParams("sparse")},
	}
	bad := &failingSink{failEmitAt: 0, failClose: true}
	good := &failingSink{failEmitAt: -1}
	runner := &ccsvm.Runner{Parallel: 2, Sinks: []ccsvm.Sink{bad, good}}
	res, err := runner.Run(specs)
	if err == nil {
		t.Fatal("Run returned nil error despite run, emit, and close failures")
	}
	for _, want := range []string{"no-such-workload", "bad-row", "emit 0 exploded", "close exploded"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error %q missing %q", err, want)
		}
	}
	// A sink error must not derail the stream: both sinks see all results,
	// in order, and are closed.
	if bad.emits != len(specs) || good.emits != len(specs) {
		t.Errorf("sinks saw %d/%d emits, want %d each", bad.emits, good.emits, len(specs))
	}
	if !bad.closed || !good.closed {
		t.Error("sinks not closed after the sweep")
	}
	// The results slice stays complete, with the failure attached in place.
	if len(res) != len(specs) || res[1].Err == nil || res[0].Err != nil || res[2].Err != nil {
		t.Errorf("unexpected result errors: %+v", res)
	}
}

// TestRunnerCloseErrorWithoutRunErrors checks that a Close failure alone
// surfaces even when every run succeeds.
func TestRunnerCloseErrorWithoutRunErrors(t *testing.T) {
	sink := &failingSink{failEmitAt: -1, failClose: true}
	runner := &ccsvm.Runner{Sinks: []ccsvm.Sink{sink}}
	if _, err := runner.Run([]ccsvm.RunSpec{
		{Workload: "vectoradd", System: smallSystem(t, ccsvm.SystemCCSVM), Params: tinyParams("vectoradd")},
	}); err == nil || !strings.Contains(err.Error(), "close exploded") {
		t.Fatalf("err = %v, want the sink close failure", err)
	}
}

// TestRunnerOrderedStreamingWithFailures requires sink output to stay
// byte-identical between Parallel=1 and Parallel=4 when some runs fail:
// failed rows stream in spec order like any other row.
func TestRunnerOrderedStreamingWithFailures(t *testing.T) {
	var specs []ccsvm.RunSpec
	for i := 0; i < 4; i++ {
		specs = append(specs,
			ccsvm.RunSpec{Workload: "vectoradd", System: smallSystem(t, ccsvm.SystemCCSVM), Params: tinyParams("vectoradd"), Tag: fmt.Sprintf("row%d", i)},
			ccsvm.RunSpec{Workload: "no-such-workload", System: smallSystem(t, ccsvm.SystemCPU), Params: ccsvm.Params{N: 4}, Tag: fmt.Sprintf("fail%d", i)},
		)
	}
	run := func(parallel int) (string, string) {
		var jsonl bytes.Buffer
		runner := &ccsvm.Runner{Parallel: parallel, Sinks: []ccsvm.Sink{ccsvm.NewJSONLSink(&jsonl)}}
		_, err := runner.Run(specs)
		if err == nil {
			t.Fatal("expected a joined error from the failing rows")
		}
		return jsonl.String(), err.Error()
	}
	seqOut, seqErr := run(1)
	parOut, parErr := run(4)
	if seqOut != parOut {
		t.Errorf("JSONL output differs between parallel=1 and parallel=4:\n--- seq\n%s\n--- par\n%s", seqOut, parOut)
	}
	if seqErr != parErr {
		t.Errorf("joined error differs between parallel=1 and parallel=4:\nseq: %s\npar: %s", seqErr, parErr)
	}
}

// TestResultsBitIdenticalAcrossRuns is the pooling determinism regression
// test: event and message recycling must not perturb simulated timing or
// metrics, so re-running any (workload, system) pair yields a bit-identical
// Result — including the full per-run metrics map.
func TestResultsBitIdenticalAcrossRuns(t *testing.T) {
	for _, w := range ccsvm.Workloads() {
		for _, kind := range w.SystemKinds() {
			t.Run(w.Name+"/"+string(kind), func(t *testing.T) {
				t.Parallel()
				p := tinyParams(w.Name)
				a, err := w.Run(smallSystem(t, kind), p)
				if err != nil {
					t.Fatal(err)
				}
				b, err := w.Run(smallSystem(t, kind), p)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("repeated run not bit-identical:\nfirst:  %+v\nsecond: %+v", a, b)
				}
				if len(a.Metrics) == 0 {
					t.Fatal("result carries no metrics; the comparison proved nothing")
				}
			})
		}
	}
}

// TestRunnerArenaReuse is the worker-reuse acceptance criterion: a sweep
// whose workers recycle machine parts across runs (the Runner default) must
// produce byte-identical JSONL — every simulated time, metric and trace hash
// — to a fresh-machine-per-run sweep, at any Parallel setting. Fresh machines
// are expressed as a brand-new arena per spec, so no run inherits another's
// engine, memory, tag arrays, SWMR checker, directory tables or message
// populations. The presets list is every pair on every registered preset at
// N=8: one worker then cycles through tag arrays of different geometries and
// both coherence protocols. A Runner reused for several calls keeps its
// workers' arenas between them, so its later calls start warm and must match
// too.
func TestRunnerArenaReuse(t *testing.T) {
	lists := []struct {
		name  string
		specs []ccsvm.RunSpec
	}{
		{"pairs", ccsvm.Pairs(ccsvm.DefaultParams())},
		{"presets", presetPairs(t, ccsvm.Params{N: 8, Density: 0.1, Seed: 42})},
	}
	for _, list := range lists {
		t.Run(list.name, func(t *testing.T) {
			sweep := func(r *ccsvm.Runner, freshPerRun bool) string {
				t.Helper()
				batch := make([]ccsvm.RunSpec, len(list.specs))
				copy(batch, list.specs)
				if freshPerRun {
					for i := range batch {
						batch[i].System.Arena = ccsvm.NewArena()
						defer batch[i].System.Arena.StopCoroutines()
					}
				}
				var buf bytes.Buffer
				r.Sinks = []ccsvm.Sink{ccsvm.NewJSONLSink(&buf)}
				if _, err := r.Run(batch); err != nil {
					t.Fatalf("sweep (parallel=%d, fresh=%v): %v", r.Parallel, freshPerRun, err)
				}
				return buf.String()
			}

			fresh := sweep(&ccsvm.Runner{Parallel: 1}, true)
			if fresh == "" {
				t.Fatal("fresh sweep produced no JSONL; the comparison would prove nothing")
			}
			for _, parallel := range []int{1, 4, 8} {
				if got := sweep(&ccsvm.Runner{Parallel: parallel}, false); got != fresh {
					t.Errorf("arena-reuse sweep at parallel=%d differs from fresh-machine sweep:\n--- fresh\n%s\n--- reused\n%s",
						parallel, fresh, got)
				}
			}
			for _, parallel := range []int{1, 4} {
				r := &ccsvm.Runner{Parallel: parallel}
				for call := 1; call <= 3; call++ {
					if got := sweep(r, false); got != fresh {
						t.Errorf("reused Runner at parallel=%d, call %d, differs from fresh-machine sweep:\n--- fresh\n%s\n--- reused\n%s",
							parallel, call, fresh, got)
					}
				}
			}
		})
	}
}

// jsonl renders results as a JSONL sink would.
func jsonl(t *testing.T, results []ccsvm.RunResult) string {
	t.Helper()
	var buf bytes.Buffer
	sink := ccsvm.NewJSONLSink(&buf)
	for _, rr := range results {
		if err := sink.Emit(rr); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

// TestRunnerConcurrentRuns calls Run on one Runner from two goroutines at
// once. The calls must not share an arena (the race detector and the
// byte-identity check catch a shared one), each must produce the
// fresh-machine output, and the Runner must afterwards hold no more arenas
// than the four workers that ran at once.
func TestRunnerConcurrentRuns(t *testing.T) {
	specs := presetPairs(t, ccsvm.Params{N: 8, Density: 0.1, Seed: 42})
	fresh := make([]ccsvm.RunSpec, len(specs))
	copy(fresh, specs)
	for i := range fresh {
		fresh[i].System.Arena = ccsvm.NewArena()
		defer fresh[i].System.Arena.StopCoroutines()
	}
	want, err := (&ccsvm.Runner{Parallel: 1}).Run(fresh)
	if err != nil {
		t.Fatalf("fresh sweep: %v", err)
	}
	wantJSONL := jsonl(t, want)

	r := &ccsvm.Runner{Parallel: 2}
	var got [2][]ccsvm.RunResult
	var errs [2]error
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], errs[g] = r.Run(specs)
		}()
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("concurrent call %d: %v", g, errs[g])
		}
		if s := jsonl(t, got[g]); s != wantJSONL {
			t.Errorf("concurrent call %d differs from fresh-machine sweep:\n--- fresh\n%s\n--- concurrent\n%s", g, wantJSONL, s)
		}
	}
	if n := len(r.ParkedArenas()); n == 0 || n > 4 {
		t.Fatalf("Runner holds %d arenas after two concurrent calls at Parallel 2, want 1 to 4", n)
	}
}

// TestRunnerWarmCallsBuildNothing checks that a Runner keeps its worker's
// arena between Run calls: once the first call has built a machine of every
// shape in the list, the later calls draw every engine, memory, tag array,
// SWMR checker, directory table, snoop filter map, L1 controller, MMU and
// GPU memory path from the arena, and its parked message populations, op
// batches (with their storage), threads, coroutines and MTTOP contexts stay
// at the first call's high-water mark. The parked coroutines stay live
// between calls, so calls 2 and 3 start none: every coroutine a call's
// threads ran on was parked, so a started one would raise the count.
func TestRunnerWarmCallsBuildNothing(t *testing.T) {
	p := ccsvm.Params{N: 8, Density: 0.1, Seed: 42}
	var specs []ccsvm.RunSpec
	for _, w := range ccsvm.Workloads() {
		if w.Supports(ccsvm.SystemCCSVM) {
			spec, err := ccsvm.BuildSpec(w.Name, ccsvm.SystemCCSVM, "ccsvm-small", nil, p)
			if err != nil {
				t.Fatal(err)
			}
			specs = append(specs, spec)
		}
	}
	for _, pair := range []struct {
		workload string
		kind     ccsvm.SystemKind
	}{{"matmul", ccsvm.SystemCPU}, {"apsp", ccsvm.SystemOpenCL}} {
		spec, err := ccsvm.BuildSpec(pair.workload, pair.kind, "apu-base", nil, p)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}

	// parts lists each recycled part's builds and reuses.
	type counts struct{ builds, reuses uint64 }
	names := []string{"engine", "physical", "array", "checker", "table", "snoop map", "L1 controller", "MMU", "GPU memory"}
	parts := func(s simarena.Stats) map[string]counts {
		return map[string]counts{
			"engine":        {s.EngineBuilds, s.EngineReuses},
			"physical":      {s.PhysicalBuilds, s.PhysicalReuses},
			"array":         {s.ArrayBuilds, s.ArrayReuses},
			"checker":       {s.CheckerBuilds, s.CheckerReuses},
			"table":         {s.TableBuilds, s.TableReuses},
			"snoop map":     {s.SnoopMapBuilds, s.SnoopMapReuses},
			"L1 controller": {s.L1Builds, s.L1Reuses},
			"MMU":           {s.MMUBuilds, s.MMUReuses},
			"GPU memory":    {s.GPUMemBuilds, s.GPUMemReuses},
		}
	}

	r := &ccsvm.Runner{Parallel: 1}
	var arena *ccsvm.Arena
	var first, prev simarena.Stats
	for call := 1; call <= 3; call++ {
		if _, err := r.Run(specs); err != nil {
			t.Fatalf("call %d: %v", call, err)
		}
		parked := r.ParkedArenas()
		if len(parked) != 1 {
			t.Fatalf("call %d: Runner holds %d arenas, want its one worker's", call, len(parked))
		}
		s := parked[0].Stats()
		if call == 1 {
			arena, first = parked[0], s
			if s.CheckerBuilds == 0 || s.TableBuilds == 0 || s.SnoopMapBuilds == 0 ||
				s.CohMsgs == 0 || s.NocMsgs == 0 || s.Batches == 0 || s.Threads == 0 || s.Contexts == 0 ||
				s.Coroutines == 0 || s.L1s == 0 || s.MMUs == 0 || s.GPUMems == 0 {
				t.Fatalf("first call built no checker, table or snoop map, or parked no messages, batches, threads, contexts, coroutines, L1 controllers, MMUs or GPU memory paths: %+v", s)
			}
		} else {
			if parked[0] != arena {
				t.Fatalf("call %d ran on a new arena, not the one call 1 parked", call)
			}
			// Every part the call asked for, as many as call 1 asked for, was
			// a reuse.
			now, before, asked := parts(s), parts(prev), parts(first)
			for _, name := range names {
				if built := now[name].builds - before[name].builds; built != 0 {
					t.Errorf("call %d built %d new %s(s)", call, built, name)
				}
				want := asked[name].builds + asked[name].reuses
				if reused := now[name].reuses - before[name].reuses; reused != want {
					t.Errorf("call %d reused %d %s(s), want all %d it asked for", call, reused, name, want)
				}
			}
			if s.CohMsgs != first.CohMsgs || s.NocMsgs != first.NocMsgs {
				t.Errorf("call %d parked %d coherence and %d network messages, want call 1's %d and %d",
					call, s.CohMsgs, s.NocMsgs, first.CohMsgs, first.NocMsgs)
			}
			// A built batch, or one whose storage grew, raises these.
			if s.Batches != first.Batches || s.BatchOps != first.BatchOps {
				t.Errorf("call %d parked %d batches holding %d ops, want call 1's %d and %d",
					call, s.Batches, s.BatchOps, first.Batches, first.BatchOps)
			}
			// Every thread and context a machine builds is parked at its
			// Shutdown, so a built one raises these.
			if s.Threads != first.Threads || s.Contexts != first.Contexts {
				t.Errorf("call %d parked %d threads and %d MTTOP contexts, want call 1's %d and %d",
					call, s.Threads, s.Contexts, first.Threads, first.Contexts)
			}
			// A launch takes a parked coroutine before it starts one.
			if s.Coroutines != first.Coroutines {
				t.Errorf("call %d parked %d coroutines, want call 1's %d", call, s.Coroutines, first.Coroutines)
			}
		}
		prev = s
	}
}

// panicKind is a system kind only TestRunnerRecoversPanickingRun knows. The
// test gives matmul a run function for it, so the registry keeps its five
// workloads and every other test's pairs.
const panicKind ccsvm.SystemKind = "panic-test"

// runPanicking builds a CCSVM machine in the run's arena and panics in an
// MTTOP thread while the other threads of its task are mid-run.
func runPanicking(sys ccsvm.System, _ ccsvm.Params) (ccsvm.Result, error) {
	m := core.NewMachine(sys.CCSVM)
	defer m.Shutdown()
	kernel := m.RegisterKernel(func(c *xthreads.MTTOPContext) {
		c.Compute(int64(100 * c.TID()))
		if c.TID() == 3 {
			panic("kernel bug")
		}
		c.Compute(1000)
	})
	_, err := m.RunProgram(func(c *xthreads.CPUContext) {
		c.CreateMThreads(kernel, 0, 0, 7)
		c.Compute(1 << 20)
	})
	return ccsvm.Result{}, err
}

// TestRunnerRecoversPanickingRun runs a spec that panics mid-run between two
// matmul specs on two workers. The sweep must survive it: the panicking spec
// yields an ErrSimulationPanic, in its result and in the joined error, and
// the other specs' sink output is byte-identical to the same sweep without
// it.
func TestRunnerRecoversPanickingRun(t *testing.T) {
	w, ok := ccsvm.Lookup("matmul")
	if !ok {
		t.Fatal("matmul is not registered")
	}
	w.Runners[panicKind] = runPanicking
	t.Cleanup(func() { delete(w.Runners, panicKind) })

	p := ccsvm.Params{N: 8, Seed: 42}
	a, err := ccsvm.BuildSpec("matmul", ccsvm.SystemCCSVM, "ccsvm-small", nil, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ccsvm.BuildSpec("matmul", ccsvm.SystemOpenCL, "apu-base", nil, p)
	if err != nil {
		t.Fatal(err)
	}
	bad := ccsvm.RunSpec{Workload: "matmul", System: ccsvm.System{Kind: panicKind, CCSVM: a.System.CCSVM}, Params: p}

	sweep := func(specs ...ccsvm.RunSpec) ([]ccsvm.RunResult, string, error) {
		var buf bytes.Buffer
		r := &ccsvm.Runner{Parallel: 2, Sinks: []ccsvm.Sink{ccsvm.NewJSONLSink(&buf)}}
		results, err := r.Run(specs)
		return results, buf.String(), err
	}
	_, want, err := sweep(a, b)
	if err != nil {
		t.Fatalf("sweep without the panicking spec: %v", err)
	}
	results, got, err := sweep(a, bad, b)
	var pe *ccsvm.ErrSimulationPanic
	if !errors.As(err, &pe) || pe.Spec.System.Kind != panicKind {
		t.Fatalf("sweep error %v does not carry the panicking spec's ErrSimulationPanic", err)
	}
	if !errors.As(results[1].Err, &pe) || !strings.Contains(fmt.Sprint(pe.Value), `"mttop-k0-t3" failed: kernel bug`) || len(pe.Stack) == 0 {
		t.Fatalf("panicking spec's result error = %v, want an ErrSimulationPanic naming the failed thread, with the panic value and a stack", results[1].Err)
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil {
			t.Errorf("spec %d failed next to the panicking one: %v", i, results[i].Err)
		}
	}
	lines := strings.SplitAfter(got, "\n")
	if others := lines[0] + lines[2]; others != want {
		t.Fatalf("other specs' sink output differs from the sweep without the panicking spec:\n--- without\n%s--- with\n%s", want, others)
	}
}

// TestRunnerLeavesNoGoroutines: every workload thread runs on a coroutine
// its machine's arena keeps for later threads, and a Runner keeps its
// workers' arenas, their coroutines parked, from one Run call to the next.
// So once a sweep returns, the goroutines left are exactly the coroutines
// parked in the Runner's arenas — after runs of xthreads and OpenCL specs
// and after a run that ends over its simulated-time budget with threads
// mid-run. A run that panics mid-run leaves none of its arena's coroutines,
// since its worker ends them and drops the arena, and once a Runner is
// dropped, a GC ends the coroutines of every arena it held.
func TestRunnerLeavesNoGoroutines(t *testing.T) {
	w, ok := ccsvm.Lookup("matmul")
	if !ok {
		t.Fatal("matmul is not registered")
	}
	w.Runners[panicKind] = runPanicking
	t.Cleanup(func() { delete(w.Runners, panicKind) })
	p := ccsvm.Params{N: 16, Seed: 42}
	var specs []ccsvm.RunSpec
	for _, pair := range []struct {
		workload string
		kind     ccsvm.SystemKind
	}{{"vectoradd", ccsvm.SystemCCSVM}, {"matmul", ccsvm.SystemCCSVM}, {"vectoradd", ccsvm.SystemOpenCL}, {"apsp", ccsvm.SystemOpenCL}} {
		spec, err := ccsvm.BuildSpec(pair.workload, pair.kind, "", nil, p)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	// Both budgets end the run with threads mid-run: MTTOP threads, and
	// work-items once the OpenCL initialization costs are waived.
	var hung []ccsvm.RunSpec
	for _, h := range []struct {
		kind      ccsvm.SystemKind
		overrides []string
	}{
		{ccsvm.SystemCCSVM, []string{"ccsvm.MaxSimulatedTime=2us"}},
		{ccsvm.SystemOpenCL, []string{"apu.OpenCL.PlatformInit=0ns", "apu.OpenCL.ProgramBuild=0ns", "apu.MaxSimulatedTime=80us"}},
	} {
		spec, err := ccsvm.BuildSpec("matmul", h.kind, "", h.overrides, p)
		if err != nil {
			t.Fatal(err)
		}
		hung = append(hung, spec)
	}

	// Runners dropped by earlier tests end their coroutines only once a GC
	// has found them unreachable, on the runtime's cleanup goroutine: let
	// the count stop changing before reading it.
	runtime.GC()
	before := runtime.NumGoroutine()
	for still := 0; still < 50; {
		time.Sleep(time.Millisecond)
		if n := runtime.NumGoroutine(); n != before {
			before, still = n, 0
		} else {
			still++
		}
	}
	// settled polls briefly, since the Runner's feeder goroutine may still
	// be returning when Run does and a cleanup ends coroutines after the GC
	// that queued it, until the count is the baseline plus the coroutines
	// parked in the Runners' arenas.
	settled := func(after string, runners ...*ccsvm.Runner) {
		t.Helper()
		want := before
		for _, r := range runners {
			for _, a := range r.ParkedArenas() {
				want += a.Stats().Coroutines
			}
		}
		for start := time.Now(); runtime.NumGoroutine() != want; time.Sleep(time.Millisecond) {
			if time.Since(start) > 5*time.Second {
				t.Fatalf("%d goroutines %s, want %d: %d and the parked coroutines", runtime.NumGoroutine(), after, want, before)
			}
		}
	}
	r := &ccsvm.Runner{Parallel: 2}
	if _, err := r.Run(specs); err != nil {
		t.Fatal(err)
	}
	settled("after a sweep of xthreads and OpenCL specs", r)
	results, _ := r.Run(hung)
	for _, rr := range results {
		if rr.Err == nil || !strings.Contains(rr.Err.Error(), "budget") {
			t.Fatalf("%s returned %v, want a simulated-time budget error", rr.Spec, rr.Err)
		}
	}
	settled("after runs over their simulated-time budget", r)
	if n := len(r.ParkedArenas()); n != 2 {
		t.Fatalf("Runner holds %d arenas after two calls at Parallel 2, want 2", n)
	}
	// The panicking run follows a clean one on the same worker, so the arena
	// its worker drops holds the clean run's parked coroutines.
	bad := ccsvm.RunSpec{Workload: "matmul", System: ccsvm.System{Kind: panicKind, CCSVM: specs[1].System.CCSVM}, Params: p}
	one := &ccsvm.Runner{Parallel: 1}
	results, _ = one.Run([]ccsvm.RunSpec{specs[1], bad, specs[0]})
	var pe *ccsvm.ErrSimulationPanic
	if results[0].Err != nil || !errors.As(results[1].Err, &pe) || results[2].Err != nil {
		t.Fatalf("sweep around a panicking run returned %v, %v and %v, want only the middle one's ErrSimulationPanic",
			results[0].Err, results[1].Err, results[2].Err)
	}
	settled("after a run that panicked", r, one)
	runtime.KeepAlive(one)
	r, one = nil, nil
	runtime.GC()
	settled("after the Runners were dropped")
}

// TestRunnerReusesPartsOfOverBudgetRuns: a run that ends over its
// simulated-time budget parks its L1 controllers, MMUs and GPU memory path
// mid-run. On the same worker, the matmul runs after a CCSVM and an OpenCL
// run that end so must return what they return on a fresh Runner.
func TestRunnerReusesPartsOfOverBudgetRuns(t *testing.T) {
	spec := func(kind ccsvm.SystemKind, overrides ...string) ccsvm.RunSpec {
		t.Helper()
		s, err := ccsvm.BuildSpec("matmul", kind, "", overrides, ccsvm.Params{N: 16, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// With four-line L1s the CCSVM run ends with 13 transactions, 5
	// writebacks and 2 stalled requests in flight. The matmul after it gets a
	// budget that a leaked stall or eviction exceeds quickly.
	hung := []ccsvm.RunSpec{
		spec(ccsvm.SystemCCSVM, "ccsvm.MaxSimulatedTime=6us", "ccsvm.CPUL1.SizeBytes=256", "ccsvm.CPUL1.Assoc=2",
			"ccsvm.MTTOPL1.SizeBytes=256", "ccsvm.MTTOPL1.Assoc=2"),
		spec(ccsvm.SystemOpenCL, "apu.OpenCL.PlatformInit=0ns", "apu.OpenCL.ProgramBuild=0ns", "apu.MaxSimulatedTime=80us"),
	}
	after := []ccsvm.RunSpec{spec(ccsvm.SystemCCSVM, "ccsvm.MaxSimulatedTime=1ms"), spec(ccsvm.SystemOpenCL)}
	want, err := (&ccsvm.Runner{Parallel: 1}).Run(after)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := (&ccsvm.Runner{Parallel: 1}).Run(append(hung, after...))
	for _, rr := range got[:len(hung)] {
		if rr.Err == nil || !strings.Contains(rr.Err.Error(), "budget") {
			t.Fatalf("%s returned %v, want a simulated-time budget error", rr.Spec, rr.Err)
		}
	}
	for i, rr := range got[len(hung):] {
		if rr.Err != nil || !reflect.DeepEqual(rr.Result, want[i].Result) {
			t.Errorf("%s after over-budget runs: %v, %+v; a fresh Runner's: %+v", rr.Spec, rr.Err, rr.Result, want[i].Result)
		}
	}
}

// TestArenaMessagePopulationIsStable is the regression test for the
// coherence-message leak across arena reuse: rerunning one spec on one arena
// must park the same number of protocol messages after every run, the
// machine's high-water mark of messages in flight. With one pool per
// controller, the recycled messages seeded only one controller's pool, every
// other controller allocated fresh messages on its first sends, and Shutdown
// parked them all, so the population grew with every run.
func TestArenaMessagePopulationIsStable(t *testing.T) {
	spec, err := ccsvm.BuildSpec("matmul", ccsvm.SystemCCSVM, "ccsvm-small", nil, ccsvm.Params{N: 8, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	arena := ccsvm.NewArena()
	defer arena.StopCoroutines()
	spec.System.Arena = arena
	var parked []int
	for i := 0; i < 4; i++ {
		res, err := (&ccsvm.Runner{Parallel: 1}).Run([]ccsvm.RunSpec{spec})
		if err != nil {
			t.Fatalf("run %d: %v", i+1, err)
		}
		if res[0].Err != nil {
			t.Fatalf("run %d: %v", i+1, res[0].Err)
		}
		parked = append(parked, arena.Stats().CohMsgs)
	}
	if parked[0] == 0 {
		t.Fatal("no coherence messages parked; the comparison would prove nothing")
	}
	if parked[1] != parked[2] || parked[2] != parked[3] {
		t.Fatalf("parked coherence messages after runs 1-4: %v, want the same after runs 2, 3 and 4", parked)
	}
}

// TestArenaParksAtMostPeakCoroutines: a coroutine goes back to its gate's
// pool only once its thread has finished, and the next launch takes it, so
// an arena parks at most its machine's peak of live threads, not one
// coroutine per thread. apsp on OpenCL at V = 20 starts 400 work-items, 20
// per launch, next to the host thread: 401 threads, at most 21 live.
func TestArenaParksAtMostPeakCoroutines(t *testing.T) {
	spec, err := ccsvm.BuildSpec("apsp", ccsvm.SystemOpenCL, "", nil, ccsvm.Params{N: 20, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	arena := ccsvm.NewArena()
	defer arena.StopCoroutines()
	spec.System.Arena = arena
	w, _ := ccsvm.Lookup("apsp")
	r, err := w.Run(spec.System, spec.Params)
	if err != nil {
		t.Fatal(err)
	}
	if n := r.Metrics["opencl.work_items"]; n != 400 {
		t.Fatalf("apsp at V = 20 ran %v work-items, want 400", n)
	}
	if s := arena.Stats(); s.Coroutines == 0 || s.Coroutines > 21 {
		t.Fatalf("arena parks %d coroutines, want 1 to 21", s.Coroutines)
	}
}

// presetPairs builds every runnable (workload, system) pair on every
// registered preset with the given params, in registry order.
func presetPairs(t *testing.T, p ccsvm.Params) []ccsvm.RunSpec {
	t.Helper()
	var specs []ccsvm.RunSpec
	for _, pr := range ccsvm.Presets() {
		for _, kind := range pr.Kinds() {
			for _, w := range ccsvm.Workloads() {
				if !w.Supports(kind) {
					continue
				}
				spec, err := ccsvm.BuildSpec(w.Name, kind, pr.Name, nil, p)
				if err != nil {
					t.Fatalf("BuildSpec %s/%s@%s: %v", w.Name, kind, pr.Name, err)
				}
				specs = append(specs, spec)
			}
		}
	}
	return specs
}

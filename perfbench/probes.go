package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"ccsvm"
	"ccsvm/internal/apu"
	"ccsvm/internal/coherence"
	"ccsvm/internal/core"
	"ccsvm/internal/exec"
	"ccsvm/internal/mem"
	"ccsvm/internal/noc"
	"ccsvm/internal/sim"
	"ccsvm/internal/simarena"
	"ccsvm/internal/stats"
)

// Layer probes time direct calls into one layer's exported functions, on
// fixed amounts of work, so each layer has a host-time number of its own.
// Every probe repeats probeRepeats times and reports the median.
const probeRepeats = 7

// Work per probe repeat, sized so one repeat takes tens of milliseconds on
// a 2-core host.
const (
	dispatchEvents = 400_000
	selfOps        = 100_000
	switchOps      = 40_000
	missLines      = 8192 // under the smallest preset's L2, so every miss goes to DRAM
	transferWrites = 8192
	torusMessages  = 40_000
	machineBuilds  = 20
	noopRuns       = 2000
)

// probe is one layer probe: a metric name and a function that runs one
// repeat and returns that repeat's value.
type probe struct {
	name string
	run  func() (float64, error)
}

// probes lists the layer probes for a workload; machine-dependent ones build
// the workload's own CCSVM preset and protocol.
func probes(wl *benchWorkload, seed int64) ([]probe, error) {
	pr, ok := ccsvm.LookupPreset(wl.preset)
	if !ok {
		return nil, fmt.Errorf("unknown preset %q", wl.preset)
	}
	apuBase, ok := ccsvm.LookupPreset("apu-base")
	if !ok {
		return nil, fmt.Errorf("unknown preset %q", "apu-base")
	}
	withProto := func(name string) core.Config {
		c := pr.CCSVM
		c.Coherence.Protocol = name
		return c
	}
	own := withProto(wl.protocol)
	return []probe{
		{"sim.dispatch_ns_per_event", func() (float64, error) { return dispatchNs(seed), nil }},
		{"exec.self_ns_per_op", func() (float64, error) { return execNs(1, selfOps) }},
		{"exec.switch_ns_per_op", func() (float64, error) { return execNs(2, switchOps) }},
		{"coherence.miss_ns.moesi", func() (float64, error) { return missNs(withProto("moesi")) }},
		{"coherence.miss_ns.mesi", func() (float64, error) { return missNs(withProto("mesi")) }},
		{"coherence.transfer_ns.moesi", func() (float64, error) { return transferNs(withProto("moesi")) }},
		{"coherence.transfer_ns.mesi", func() (float64, error) { return transferNs(withProto("mesi")) }},
		{"noc.ns_per_hop", func() (float64, error) { return hopNs(own) }},
		{"core.build_us", func() (float64, error) { return coreBuildUs(own, simarena.New()), nil }},
		{"core.build_fresh_us", func() (float64, error) { return coreBuildUs(own, nil), nil }},
		{"core.build_allocs", func() (float64, error) { return coreBuildAllocs(own), nil }},
		{"apu.build_us", func() (float64, error) { return apuBuildUs(apuBase.APU), nil }},
		{"ccsvm.runner_overhead_us_per_run", runnerOverheadUs},
	}, nil
}

// runProbes runs every probe, each repeat inside a span under parent, and
// returns the median of each probe's repeats.
func runProbes(ps []probe, tr *tracer, parent int) (map[string]float64, error) {
	out := make(map[string]float64, len(ps))
	for _, p := range ps {
		vals := make([]float64, probeRepeats)
		for i := range vals {
			sp := tr.begin("probe "+p.name, parent)
			v, err := p.run()
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("probe %s: %w", p.name, err)
			}
			vals[i] = v
		}
		out[p.name] = median(vals)
	}
	return out, nil
}

func nsPer(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// dispatchNs times Engine.ScheduleArg plus Step with a steady queue of 64
// events, 90% of the delays inside the engine's 64 ns calendar window and the
// rest up to 1 µs out in the overflow heap.
func dispatchNs(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	delays := make([]sim.Duration, 1024)
	for i := range delays {
		if rng.Intn(10) < 9 {
			delays[i] = sim.Duration(rng.Int63n(int64(60 * sim.Nanosecond)))
		} else {
			delays[i] = 100*sim.Nanosecond + sim.Duration(rng.Int63n(int64(900*sim.Nanosecond)))
		}
	}
	eng := sim.NewEngine()
	fn := func(any) {}
	for i := 0; i < 64; i++ {
		eng.ScheduleArg(delays[i], fn, nil)
	}
	start := time.Now()
	for i := 0; i < dispatchEvents; i++ {
		eng.ScheduleArg(delays[i&1023], fn, nil)
		eng.Step()
	}
	return nsPer(time.Since(start), dispatchEvents)
}

// probeCore drives one exec.Thread the way a core model does: it fetches an
// op with TryNext and completes it one event later.
type probeCore struct {
	th       *exec.Thread
	eng      *sim.Engine
	fetchFn  func()
	finishFn func(any)
}

func newProbeCore(g *exec.Gate, eng *sim.Engine, id, ops int) *probeCore {
	c := &probeCore{eng: eng}
	c.th = exec.NewThread(g, id, "probe", func(ctx *exec.Context) {
		for i := 0; i < ops; i++ {
			ctx.Compute(1)
		}
	})
	c.fetchFn = c.fetch
	c.finishFn = func(any) {
		c.th.Complete(exec.Result{})
		c.fetch()
	}
	return c
}

func (c *probeCore) fetch() {
	if _, st := c.th.TryNext(c.fetchFn); st == exec.NextOp {
		c.eng.ScheduleArg(2*sim.Picosecond, c.finishFn, nil)
	}
}

// execNs times operation handoffs through the exported Gate/Thread API. With
// one thread every completion is the running thread's own (the zero-switch
// fast path); with two threads offset by half an op their completions
// alternate, so every op hands the baton to the other goroutine.
func execNs(threads, ops int) (float64, error) {
	eng := sim.NewEngine()
	g := exec.NewGate()
	g.Bind(eng)
	cores := make([]*probeCore, threads)
	for i := range cores {
		c := newProbeCore(g, eng, i, ops)
		c.th.Start()
		eng.Schedule(sim.Duration(i)*sim.Picosecond, c.fetch)
		cores[i] = c
	}
	start := time.Now()
	g.Drive(eng.Step)
	d := time.Since(start)
	for _, c := range cores {
		if !c.th.Finished() {
			return 0, fmt.Errorf("exec probe thread %d did not finish", c.th.ID())
		}
	}
	return nsPer(d, threads*ops), nil
}

// access issues one request on an L1 and steps the engine until it completes.
func access(eng *sim.Engine, l1 *coherence.L1Controller, req mem.Request) error {
	done := false
	l1.Access(req, func() { done = true })
	for !done {
		if !eng.Step() {
			return fmt.Errorf("engine drained before the access to %#x completed", req.Addr)
		}
	}
	return nil
}

// missNs times L1Controller.Access read misses on distinct lines, each
// through a DirectoryBank to DRAM and back into the L1.
func missNs(cfg core.Config) (float64, error) {
	m := core.NewMachine(cfg)
	defer m.Shutdown()
	l1 := m.L1Controllers()[0]
	start := time.Now()
	for i := 0; i < missLines; i++ {
		req := mem.Request{Type: mem.Read, Addr: mem.PAddr(i * mem.LineSize), Size: 8}
		if err := access(m.Engine, l1, req); err != nil {
			return 0, err
		}
	}
	m.Engine.Run()
	return nsPer(time.Since(start), missLines), nil
}

// transferNs times write ping-pong on one line between two L1s: every write
// takes the line from the other L1 through the directory.
func transferNs(cfg core.Config) (float64, error) {
	m := core.NewMachine(cfg)
	defer m.Shutdown()
	l1s := m.L1Controllers()[:2]
	start := time.Now()
	for i := 0; i < transferWrites; i++ {
		req := mem.Request{Type: mem.Write, Addr: 0x1000, Size: 8}
		if err := access(m.Engine, l1s[i%2], req); err != nil {
			return 0, err
		}
	}
	m.Engine.Run()
	return nsPer(time.Since(start), transferWrites), nil
}

type countingReceiver struct{ n int }

func (r *countingReceiver) Receive(*noc.Message) { r.n++ }

// hopNs times Torus.Send over a fixed route from a corner to the middle of
// a torus sized like the machine's (see core.NewMachine), per hop.
func hopNs(cfg core.Config) (float64, error) {
	nodes := cfg.NumCPUs + cfg.NumMTTOPs + cfg.L2Banks
	w := int(math.Ceil(math.Sqrt(float64(nodes))))
	h := (nodes + w - 1) / w
	eng := sim.NewEngine()
	placement := map[noc.NodeID]noc.Coord{0: {X: 0, Y: 0}, 1: {X: w / 2, Y: h / 2}}
	torus := noc.NewTorus(eng, noc.DefaultTorusConfig(w, h), placement, stats.NewRegistry("probe"))
	sink := &countingReceiver{}
	torus.Attach(0, sink)
	torus.Attach(1, sink)
	hops := torus.HopCount(0, 1)
	start := time.Now()
	for i := 0; i < torusMessages; i++ {
		msg := torus.NewMessage()
		msg.Src, msg.Dst, msg.SizeBytes = 0, 1, mem.LineSize+8
		torus.Send(msg)
		eng.Run()
	}
	d := time.Since(start)
	if sink.n != torusMessages {
		return 0, fmt.Errorf("torus delivered %d of %d messages", sink.n, torusMessages)
	}
	return nsPer(d, torusMessages*hops), nil
}

// coreBuildUs times NewMachine plus Shutdown. With an arena, the first build
// fills it and is not timed, as in a Runner worker.
func coreBuildUs(cfg core.Config, arena *simarena.Arena) float64 {
	cfg = cfg.InArena(arena)
	if arena != nil {
		core.NewMachine(cfg).Shutdown()
	}
	start := time.Now()
	for i := 0; i < machineBuilds; i++ {
		core.NewMachine(cfg).Shutdown()
	}
	return nsPer(time.Since(start), machineBuilds) / 1e3
}

// coreBuildAllocs counts heap allocations per arena-backed machine build.
func coreBuildAllocs(cfg core.Config) float64 {
	cfg = cfg.InArena(simarena.New())
	core.NewMachine(cfg).Shutdown()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < machineBuilds; i++ {
		core.NewMachine(cfg).Shutdown()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / machineBuilds
}

// apuBuildUs times apu.NewMachine plus Shutdown with a warm arena.
func apuBuildUs(cfg apu.Config) float64 {
	cfg = cfg.InArena(simarena.New())
	apu.NewMachine(cfg).Shutdown()
	start := time.Now()
	for i := 0; i < machineBuilds; i++ {
		apu.NewMachine(cfg).Shutdown()
	}
	return nsPer(time.Since(start), machineBuilds) / 1e3
}

// runnerOverheadUs times Runner.Run over runs of a workload that simulates
// nothing: lookup, arena set-up, result assembly and ordered delivery.
func runnerOverheadUs() (float64, error) {
	sys, err := ccsvm.NewSystem(ccsvm.SystemCCSVM)
	if err != nil {
		return 0, err
	}
	specs := slices.Repeat([]ccsvm.RunSpec{{Workload: noopWorkload, System: sys}}, noopRuns)
	runner := &ccsvm.Runner{Parallel: 1}
	start := time.Now()
	if _, err := runner.Run(specs); err != nil {
		return 0, err
	}
	return nsPer(time.Since(start), noopRuns) / 1e3, nil
}

package exec

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"ccsvm/internal/mem"
	"ccsvm/internal/sim"
)

// pollMachine is a one-word-per-address memory on a real engine with the gate
// bound, so Drain is live. A load reads memory when it completes, a store
// writes it when it completes, and a compute op takes Instrs ps.
type pollMachine struct {
	eng *sim.Engine
	g   *Gate
	mem map[mem.VAddr]uint32
	log []string
}

func newPollMachine() *pollMachine {
	m := &pollMachine{eng: sim.NewEngine(), g: NewGate(), mem: map[mem.VAddr]uint32{}}
	m.g.Bind(m.eng)
	m.eng.EnableTraceHash()
	return m
}

func (m *pollMachine) logf(format string, args ...any) {
	m.log = append(m.log, fmt.Sprintf("%d ", m.eng.Now())+fmt.Sprintf(format, args...))
}

// pollCore runs one thread on a pollMachine the way a core model does: it
// fetches with itself as the resume continuation and completes every op
// from an engine event. after, when set, runs in each completion handler
// once the thread has been completed and re-fetched; a handler that
// schedules there makes Drain activate the thread before the schedule.
type pollCore struct {
	m       *pollMachine
	th      *Thread
	loadPs  sim.Duration
	storePs sim.Duration
	after   func()

	// steppers counts, per gate function, the ops a poll step published.
	// Once counting, activations counts coroutine activations and midLoop
	// records one made while the thread's poll loop was still running.
	// drainedUnderPoller counts ops the thread published from a Drain while
	// a poller held the gate.
	steppers           map[string]int
	counting           bool
	activations        int
	midLoop            bool
	drainedUnderPoller int
}

func (m *pollMachine) core(id int, name string, fn func(*Context)) *pollCore {
	return &pollCore{m: m, th: NewThread(m.g, id, name, fn), loadPs: 3, storePs: 2, steppers: map[string]int{}}
}

func (c *pollCore) fetch() {
	m := c.m
	op, st := c.th.TryNext(c.fetch)
	switch st {
	case NextWait:
		return
	case NextDone:
		if err := c.th.Err(); err != nil {
			panic(fmt.Sprintf("thread %q failed: %v", c.th.Name(), err))
		}
		m.logf("%s exits", c.th.Name())
		return
	}
	if !c.counting {
		c.countActivations()
	}
	if s := stepRunner(); s != "" {
		c.steppers[s]++
	}
	if g := m.g; g.draining && g.holder != nil && g.holder != c.th && g.holder.polling {
		c.drainedUnderPoller++
	}
	var delay sim.Duration
	switch op.Kind {
	case OpLoad:
		delay = c.loadPs
		m.logf("%s issues load %#x", c.th.Name(), op.Addr)
	case OpStore:
		delay = c.storePs
		m.logf("%s issues store %#x=%d", c.th.Name(), op.Addr, op.Value)
	default:
		delay = sim.Duration(op.Instrs)
		m.logf("%s issues compute %d", c.th.Name(), op.Instrs)
	}
	m.eng.Schedule(delay, func() {
		var r Result
		switch op.Kind {
		case OpLoad:
			r.Value = uint64(m.mem[op.Addr])
		case OpStore:
			m.mem[op.Addr] = uint32(op.Value)
		}
		m.logf("%s completes %v -> %d", c.th.Name(), op.Kind, r.Value)
		c.th.Complete(r)
		c.fetch()
		if c.after != nil {
			c.after()
		}
	})
}

// countActivations wraps the launched coroutine's next, so every later
// activation is counted and one made inside a poll loop is recorded.
func (c *pollCore) countActivations() {
	c.counting = true
	next := c.th.next
	c.th.next = func() (struct{}, bool) {
		c.activations++
		if c.th.polling {
			c.midLoop = true
		}
		return next()
	}
}

// stepRunner names the gate function that called pollStep when the current
// call stack runs inside one, and is empty otherwise.
func stepRunner() string {
	pcs := make([]uintptr, 64)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
	inStep := false
	for {
		f, more := frames.Next()
		name := f.Function[strings.LastIndex(f.Function, "/")+1:]
		if inStep {
			return name
		}
		inStep = name == "exec.(*Thread).pollStep"
		if !more {
			return ""
		}
	}
}

// pollCase is one spin-loop scenario: a writer thread W stores vals to the
// polled cell, separated by busy compute ops of gap ps (a busy holder), while
// the poller P loops on the cell. With lead, P first computes once, so it
// issues its first load as the holder. With wAfter or pAfter, W's or P's
// completion handlers schedule an event after re-fetching the thread.
type pollCase struct {
	cond   PollCond
	x      uint32
	pause  uint32
	vals   []uint32
	gap    int64
	alone  bool
	lead   bool
	wAfter bool
	pAfter bool
	pLoad  sim.Duration
}

// pollRun is what a scenario produced.
type pollRun struct {
	log            []string
	end            sim.Time
	hash           uint64
	got            uint32
	poller, writer *pollCore
	finished       bool
}

const (
	pollCell        mem.VAddr = 0x40
	pollEventBudget           = 20000
)

// run plays the scenario with P's loop either as Poll32 or open-coded.
func (pc pollCase) run(t *testing.T, gateRun bool) pollRun {
	t.Helper()
	m := newPollMachine()
	var r pollRun
	p := m.core(0, "P", func(ctx *Context) {
		if pc.lead {
			ctx.Compute(1)
		}
		if gateRun {
			r.got = ctx.Poll32(pollCell, pc.cond, pc.x, pc.pause)
		} else {
			v := ctx.Load32(pollCell)
			for !pc.cond.ends(v, pc.x) {
				ctx.Compute(int64(pc.pause))
				v = ctx.Load32(pollCell)
			}
			r.got = v
		}
		ctx.Compute(2)
	})
	if pc.pLoad != 0 {
		p.loadPs = pc.pLoad
	}
	cores := []*pollCore{p}
	if pc.alone {
		// The cell changes from engine events only.
		for i, v := range pc.vals {
			m.eng.Schedule(sim.Duration(int64(i+1)*pc.gap), func() { m.mem[pollCell] = v })
		}
	} else {
		w := m.core(1, "W", func(ctx *Context) {
			for _, v := range pc.vals {
				for i := int64(0); i < pc.gap; i += 3 {
					ctx.Compute(3)
				}
				ctx.Store32(pollCell, v)
			}
		})
		r.writer = w
		if pc.wAfter {
			// Every other completion of W schedules after re-fetching W:
			// the others leave W pending, so Drive makes it the holder.
			n := 0
			w.after = func() {
				if n++; n%2 == 0 {
					m.eng.Schedule(1, func() { m.logf("W marker") })
				}
			}
		}
		cores = append(cores, w)
	}
	if pc.pAfter {
		p.after = func() { m.eng.Schedule(0, func() { m.logf("P marker") }) }
	}
	m.eng.Schedule(0, func() {
		for _, c := range cores {
			c.th.Start()
			c.fetch()
		}
	})
	// A bounded run: a broken loop that never ends fails the finish check
	// instead of growing the log without limit.
	m.g.Drive(func() bool { return m.eng.Executed() < pollEventBudget && m.eng.Step() })
	r.log, r.end, r.hash, r.poller, r.finished = m.log, m.eng.Now(), m.eng.TraceHash(), p, p.th.Finished()
	for _, c := range cores {
		c.th.Kill()
	}
	return r
}

// pollCases spans every condition with pause 0 and 64 over four schedules:
//
//   - alone: P's own drive loop runs the steps;
//   - busy: P behind a busy writer, so Drive runs them while P holds;
//   - drain: P completed inside handlers that schedule afterwards, so Drain
//     runs them;
//   - handover: the writer's handlers schedule after every other completion,
//     so the writer holds, finds P's completion older than its own, and
//     later completes inside a handler dispatched while P holds.
//
// A few writer gaps and load latencies vary how the completions interleave.
// The map is keyed condition/pause/schedule/variant.
func pollCases() map[string]pollCase {
	conds := []struct {
		name string
		cond PollCond
		x    uint32
		vals []uint32
	}{
		{"UntilEqual", UntilEqual, 3, []uint32{1, 2, 3}},
		{"UntilNotEqual", UntilNotEqual, 0, []uint32{0, 0, 7}},
		{"UntilAtLeast", UntilAtLeast, 3, []uint32{1, 2, 4, 5}},
	}
	out := map[string]pollCase{}
	for _, c := range conds {
		for _, pause := range []uint32{0, 64} {
			base := pollCase{cond: c.cond, x: c.x, pause: pause, vals: c.vals}
			for _, gap := range []int64{9, 40, 150} {
				alone := base
				alone.alone, alone.lead, alone.gap = true, true, gap*5
				out[fmt.Sprintf("%s/pause%d/alone/gap%d", c.name, pause, gap)] = alone
				for _, pLoad := range []sim.Duration{3, 4, 7} {
					busy := base
					busy.gap, busy.pLoad = gap, pLoad
					out[fmt.Sprintf("%s/pause%d/busy/gap%d/load%d", c.name, pause, gap, pLoad)] = busy
					drain := busy
					drain.pAfter = true
					out[fmt.Sprintf("%s/pause%d/drain/gap%d/load%d", c.name, pause, gap, pLoad)] = drain
					handover := busy
					handover.wAfter = true
					out[fmt.Sprintf("%s/pause%d/handover/gap%d/load%d", c.name, pause, gap, pLoad)] = handover
				}
			}
		}
	}
	return out
}

// comparePoll checks that Poll32 reproduces the open-coded loop exactly: the
// op log with times and values, the end time, the engine trace hash (event
// creation order) and the value returned. It fails when the gate resumed the
// poller's coroutine before its loop ended.
func comparePoll(t *testing.T, pc pollCase) pollRun {
	t.Helper()
	open, gate := pc.run(t, false), pc.run(t, true)
	if !open.finished || !gate.finished {
		t.Fatalf("poller did not finish: open-coded %v, Poll32 %v", open.finished, gate.finished)
	}
	if strings.Join(open.log, "\n") != strings.Join(gate.log, "\n") {
		t.Fatalf("op logs differ:\nopen-coded:\n%s\nPoll32:\n%s", strings.Join(open.log, "\n"), strings.Join(gate.log, "\n"))
	}
	if open.end != gate.end || open.hash != gate.hash {
		t.Fatalf("end %d hash %#x, open-coded end %d hash %#x", gate.end, gate.hash, open.end, open.hash)
	}
	if open.got != gate.got {
		t.Fatalf("Poll32 returned %d, open-coded loop %d", gate.got, open.got)
	}
	if gate.poller.midLoop {
		t.Fatal("the gate resumed the poller's coroutine before its loop ended")
	}
	// Launch aside, P's coroutine runs after its lead compute, after the
	// load that ends the loop and after its last compute, at most.
	if gate.poller.activations > 3 {
		t.Fatalf("poller activated %d times, want at most 3", gate.poller.activations)
	}
	return gate
}

// TestPoll32MatchesOpenCodedLoop runs the alone, busy and drain schedules
// both ways, and requires each of the three places a poll step may run to
// have run some.
func TestPoll32MatchesOpenCodedLoop(t *testing.T) {
	steppers := map[string]map[string]int{}
	for name, pc := range pollCases() {
		kind := strings.Split(name, "/")[2]
		if kind == "handover" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			gate := comparePoll(t, pc)
			if steppers[kind] == nil {
				steppers[kind] = map[string]int{}
			}
			for s, n := range gate.poller.steppers {
				steppers[kind][s] += n
			}
		})
	}
	for kind, want := range map[string]string{
		"alone": "exec.(*Thread).drive",
		"busy":  "exec.(*Gate).hold",
		"drain": "exec.(*Gate).Drain",
	} {
		if steppers[kind][want] == 0 {
			t.Errorf("%s schedules never ran a poll step in %s: %v", kind, want, steppers[kind])
		}
	}
}

// TestPollStepKeepsHolderHandOver pins where a poll step may not run: in
// another thread's drive loop. The writer W holds and finds P's completion
// older than its own, so it must hand over to Drive, which keeps P as the
// holder while it runs P's step and dispatches; a handler then completes W
// and schedules, and Drain must activate W before that schedule. A W that
// ran P's step itself and kept dispatching would schedule later than the
// open-coded loop (a different trace hash), and one that also made P the
// holder would have Drain activate W's own running coroutine.
func TestPollStepKeepsHolderHandOver(t *testing.T) {
	drained := 0
	for name, pc := range pollCases() {
		if strings.Split(name, "/")[2] != "handover" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			drained += comparePoll(t, pc).writer.drainedUnderPoller
		})
	}
	if drained == 0 {
		t.Error("no handover schedule had Drain activate the writer while the poller held")
	}
}

// TestPoll32ReturnsOnFirstLoad: a first load that already satisfies the
// condition ends the loop with one load and no pause.
func TestPoll32ReturnsOnFirstLoad(t *testing.T) {
	for _, cond := range []PollCond{UntilEqual, UntilNotEqual, UntilAtLeast} {
		var got uint32
		th := NewThread(NewGate(), 0, "p", func(ctx *Context) {
			got = ctx.Poll32(0x10, cond, 5, 64)
		})
		value := map[PollCond]uint64{UntilEqual: 5, UntilNotEqual: 6, UntilAtLeast: 9}[cond]
		h := &hostCore{th: th, eng: &microQ{}, respond: func(Op) Result { return Result{Value: value} }}
		th.Start()
		h.eng.at(h.fetch)
		steps := 0
		th.gate.Drive(func() bool { steps++; return steps < 10 && h.eng.step() })
		if ops := h.ops; len(ops) != 1 || ops[0].Kind != OpLoad || ops[0].Addr != 0x10 || ops[0].Size != 4 {
			t.Fatalf("cond %d: ops = %+v, want one 4-byte load", cond, ops)
		}
		th.Kill()
		if got != uint32(value) {
			t.Fatalf("cond %d: returned %d, want %d", cond, got, value)
		}
	}
}

// TestPoll32RejectsUnknownCondition: an undefined PollCond is a workload bug
// and panics in the thread before any op is issued.
func TestPoll32RejectsUnknownCondition(t *testing.T) {
	th := NewThread(NewGate(), 0, "p", func(ctx *Context) { ctx.Poll32(0x10, UntilAtLeast+1, 0, 0) })
	if ops := driveRaw(t, th, func(Op) Result { return Result{} }); len(ops) != 0 {
		t.Fatalf("ops = %+v, want none", ops)
	}
	if th.Err() == nil {
		t.Fatal("unknown condition did not panic")
	}
}

// spinRig runs one thread on an engine whose per-op callbacks are bound
// once, so the only allocations of a run are the thread's and the gate's
// own: every load returns 0 until the target-th, which returns 1.
type spinRig struct {
	eng        *sim.Engine
	th         *Thread
	op         Op
	loads      int
	target     int
	fetchFn    func()
	completeFn func(any)
}

func (r *spinRig) fetch() {
	op, st := r.th.TryNext(r.fetchFn)
	if st != NextOp {
		return
	}
	r.op = op
	r.eng.ScheduleArg(1, r.completeFn, nil)
}

// TestPoll32AllocatesNothingPerIteration: a poll that spins 1,000 times
// allocates exactly what one that spins 10 times does.
func TestPoll32AllocatesNothingPerIteration(t *testing.T) {
	r := &spinRig{eng: sim.NewEngine()}
	r.fetchFn = r.fetch
	r.completeFn = func(any) {
		var res Result
		if r.op.Kind == OpLoad {
			if r.loads++; r.loads >= r.target {
				res.Value = 1
			}
		}
		r.th.Complete(res)
		r.fetch()
	}
	start := func(any) { r.th.Start(); r.fetch() }
	body := func(ctx *Context) { ctx.Poll32(0x10, UntilEqual, 1, 64) }
	run := func(target int) func() {
		return func() {
			r.eng.Reset()
			g := NewGate()
			g.Bind(r.eng)
			r.th = NewThread(g, 0, "spin", body)
			r.loads, r.target = 0, target
			r.eng.ScheduleArg(0, start, nil)
			g.Drive(r.eng.Step)
			if !r.th.Finished() || r.loads != target {
				t.Fatalf("finished %v after %d loads, want %d", r.th.Finished(), r.loads, target)
			}
		}
	}
	// Warm the engine's calendar buckets up to their high-water capacity.
	run(1000)()
	short, long := testing.AllocsPerRun(20, run(10)), testing.AllocsPerRun(20, run(1000))
	if long != short {
		t.Fatalf("a 1000-load poll allocates %.1f objects, a 10-load one %.1f", long, short)
	}
}

// TestThreadSizeClass pins Thread to the 192-byte allocation size class: the
// poll loop's state lives in padding, and a separate struct would have moved
// every thread to the next class.
func TestThreadSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Thread{}); n > 192 {
		t.Fatalf("Thread is %d bytes, want at most 192", n)
	}
}

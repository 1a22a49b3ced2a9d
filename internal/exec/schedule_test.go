package exec

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"ccsvm/internal/sim"
)

// engCore drives one thread on a real sim.Engine bound to the gate, so the
// schedule hook (Gate.Drain) is live: every op completes op.Instrs ps after
// it is published. after, when set, runs in the completion handler once the
// thread has been completed and re-fetched — a handler that schedules more
// work after completing an operation. An op of stallAt instructions is
// accepted but never completed.
type engCore struct {
	th      *Thread
	eng     *sim.Engine
	log     *[]string
	after   func(done Op)
	stallAt int64
}

func newEngCore(g *Gate, eng *sim.Engine, log *[]string, id int, name string, fn func(*Context)) *engCore {
	return &engCore{th: NewThread(g, id, name, fn), eng: eng, log: log}
}

// fetch mirrors a core's step: take the next op or register itself as the
// resume continuation; a finished thread's panic is re-raised with its name,
// as the cpu and mttop cores do.
func (c *engCore) fetch() {
	op, st := c.th.TryNext(c.fetch)
	switch st {
	case NextWait:
		return
	case NextDone:
		if err := c.th.Err(); err != nil {
			panic(fmt.Sprintf("thread %q failed: %v", c.th.Name(), err))
		}
		return
	}
	*c.log = append(*c.log, fmt.Sprintf("%s publishes %d", c.th.Name(), op.Instrs))
	if op.Instrs == c.stallAt {
		return
	}
	c.eng.Schedule(sim.Duration(op.Instrs), func() {
		*c.log = append(*c.log, fmt.Sprintf("%s completes %d", c.th.Name(), op.Instrs))
		c.th.Complete(Result{})
		c.fetch()
		if c.after != nil {
			c.after(op)
		}
	})
}

// launchAll starts every core's thread from one event at time zero, in order.
func launchAll(eng *sim.Engine, cores ...*engCore) {
	eng.Schedule(0, func() {
		for _, c := range cores {
			c.th.Start()
			c.fetch()
		}
	})
}

// TestHolderHandsOverThroughDrive pins the hand-over rule: thread A becomes
// the holder first, then hands over to B; when a handler B dispatches
// completes A and then schedules, A must be parked so the drain activates it
// nested and A publishes its next op — scheduling that op's completion —
// before the handler's own schedule. A driver that kept A running under B
// (A activating B directly) would schedule the marker first.
func TestHolderHandsOverThroughDrive(t *testing.T) {
	eng := sim.NewEngine()
	g := NewGate()
	g.Bind(eng)
	var log []string
	a := newEngCore(g, eng, &log, 0, "A", func(ctx *Context) {
		ctx.Compute(1)
		ctx.Compute(100)
		ctx.Compute(10)
	})
	b := newEngCore(g, eng, &log, 1, "B", func(ctx *Context) {
		ctx.Compute(5)
		ctx.Compute(1000)
	})
	var holder *Thread
	a.after = func(done Op) {
		if done.Instrs != 100 {
			return
		}
		holder = g.holder
		eng.Schedule(10, func() { log = append(log, "marker fires") })
	}
	launchAll(eng, a, b)
	g.Drive(eng.Step)

	a3, marker := -1, -1
	for i, e := range log {
		switch e {
		case "A completes 10":
			a3 = i
		case "marker fires":
			marker = i
		}
	}
	if a3 < 0 || marker < 0 || a3 > marker {
		t.Fatalf("A's third op must complete before the marker at the same time:\n%s", strings.Join(log, "\n"))
	}
	if holder != b.th {
		t.Fatal("A's second op was not completed by an event B dispatched as the holder")
	}
	if !a.th.Finished() || !b.th.Finished() {
		t.Fatal("threads did not finish")
	}
}

// TestHandlerPanicReachesDrive: a panic raised by an event handler that the
// holder thread dispatches is not the workload's; it must leave Drive with
// its original value instead of being swallowed into the thread's Err.
func TestHandlerPanicReachesDrive(t *testing.T) {
	g := NewGate()
	th := NewThread(g, 0, "victim", func(ctx *Context) {
		ctx.Compute(1)
		ctx.Compute(2)
		ctx.Compute(3)
	})
	var got any
	func() {
		defer func() { got = recover() }()
		driveRaw(t, th, func(op Op) Result {
			if op.Instrs == 2 {
				if g.holder != th {
					t.Error("second op was not dispatched by the holder")
				}
				panic("handler boom")
			}
			return Result{}
		})
	}()
	if got != "handler boom" {
		t.Fatalf("Drive panicked with %v, want the handler's value", got)
	}
	if th.Err() != nil {
		t.Fatalf("handler panic was recorded as the thread's: %v", th.Err())
	}
}

// TestDrainedWorkloadPanicReachesDrive: a workload panic in a thread that
// Drain activated from a handler the holder dispatched stays in that
// thread's Err; the core's re-panic from the thread's exit path must then
// unwind through the holder and leave Drive.
func TestDrainedWorkloadPanicReachesDrive(t *testing.T) {
	eng := sim.NewEngine()
	g := NewGate()
	g.Bind(eng)
	var log []string
	a := newEngCore(g, eng, &log, 0, "A", func(ctx *Context) {
		ctx.Compute(1)
		ctx.Compute(100)
	})
	b := newEngCore(g, eng, &log, 1, "B", func(ctx *Context) {
		ctx.Compute(5)
		panic("workload boom")
	})
	b.after = func(Op) {
		if g.holder != a.th {
			t.Error("B's completion was not dispatched by holder A")
		}
		eng.Schedule(1, func() {})
	}
	launchAll(eng, a, b)
	var got any
	func() {
		defer func() { got = recover() }()
		g.Drive(eng.Step)
	}()
	want := `thread "B" failed: workload boom`
	if got != want {
		t.Fatalf("Drive panicked with %v, want %q", got, want)
	}
	if b.th.Err() != "workload boom" {
		t.Fatalf("B.Err() = %v, want the workload's panic", b.th.Err())
	}
	if a.th.Err() != nil {
		t.Fatalf("A.Err() = %v, want nil: the panic was not A's", a.th.Err())
	}
	a.th.Kill()
}

// coroutines counts the goroutines parked in a coroutine switch: the exec
// threads' coroutines. It is exact where runtime.NumGoroutine is not, since
// the previous test's runner goroutine may still be exiting when a test
// starts.
func coroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), " [coroutine")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestKillLeavesNoCoroutines: after Drive returns, Kill unwinds every parked
// coroutine — one parked at its first op, one parked as the holder when the
// engine ran dry — and never-launched threads own none, so the coroutine
// count returns to where it started.
func TestKillLeavesNoCoroutines(t *testing.T) {
	before := coroutines()
	eng := sim.NewEngine()
	g := NewGate()
	g.Bind(eng)
	var log []string
	spin := func(ctx *Context) {
		for {
			ctx.Compute(1)
		}
	}
	done := newEngCore(g, eng, &log, 0, "done", func(ctx *Context) { ctx.Compute(1) })
	firstOp := newEngCore(g, eng, &log, 1, "first-op", spin)
	firstOp.stallAt = 1
	holder := newEngCore(g, eng, &log, 2, "holder", func(ctx *Context) {
		ctx.Compute(1)
		ctx.Compute(2)
	})
	holder.stallAt = 2
	launchAll(eng, done, firstOp, holder)
	unlaunched := NewThread(g, 3, "unlaunched", spin)
	unlaunched.Start()
	unstarted := NewThread(g, 4, "unstarted", spin)
	g.Drive(eng.Step)

	if !done.th.Finished() {
		t.Fatal("finishing thread did not finish")
	}
	if n := coroutines(); n != before+2 {
		t.Fatalf("%d coroutines while two threads are parked, want %d", n, before+2)
	}
	for _, th := range []*Thread{done.th, firstOp.th, holder.th, unlaunched, unstarted} {
		th.Kill()
		if !th.Finished() {
			t.Fatalf("%s not finished after Kill", th.Name())
		}
		if th.Err() != nil {
			t.Fatalf("%s: Kill reported %v", th.Name(), th.Err())
		}
	}
	if n := coroutines(); n != before {
		t.Fatalf("%d coroutines after Kill, want %d", n, before)
	}
}

package exec

import (
	"testing"

	"ccsvm/internal/mem"
)

// microQ is a minimal stand-in for the sim engine's event queue: a FIFO of
// thunks the gate's Drive loop dispatches one at a time. It exercises the
// cooperative schedule without pulling the full engine into the package's
// unit tests.
type microQ struct{ q []func() }

func (e *microQ) at(f func()) { e.q = append(e.q, f) }

func (e *microQ) step() bool {
	if len(e.q) == 0 {
		return false
	}
	f := e.q[0]
	e.q = e.q[1:]
	f()
	return true
}

// hostCore drives one thread the way a core model does: TryNext with itself
// as the resume continuation, completions delivered from "engine" context
// (a microQ thunk) one op later.
type hostCore struct {
	th      *Thread
	eng     *microQ
	respond func(Op) Result
	ops     []Op
}

func (h *hostCore) fetch() {
	op, st := h.th.TryNext(h.fetch)
	if st != NextOp {
		return
	}
	h.ops = append(h.ops, op)
	o := op
	h.eng.at(func() {
		h.th.Complete(h.respond(o))
		h.fetch()
	})
}

// drive runs a thread to completion on the host side, answering every
// operation with the given responder, and returns the ops seen.
func drive(t *testing.T, th *Thread, respond func(Op) Result) []Op {
	t.Helper()
	ops := driveRaw(t, th, respond)
	if err := th.Err(); err != nil {
		t.Fatalf("thread panicked: %v", err)
	}
	return ops
}

// driveEventBudget bounds a driveRaw run: a gate that never finishes the
// thread fails the test instead of growing hostCore.ops without limit.
const driveEventBudget = 10000

// driveRaw is drive without the Err check, for tests of failing threads.
func driveRaw(t *testing.T, th *Thread, respond func(Op) Result) []Op {
	t.Helper()
	h := &hostCore{th: th, eng: &microQ{}, respond: respond}
	th.Start()
	h.eng.at(h.fetch)
	events := 0
	th.gate.Drive(func() bool {
		if events == driveEventBudget {
			return false
		}
		events++
		return h.eng.step()
	})
	if len(h.eng.q) > 0 {
		th.Kill()
		t.Fatalf("thread %q still running after %d events (%d ops)", th.Name(), driveEventBudget, len(h.ops))
	}
	return h.ops
}

func TestThreadBasicOps(t *testing.T) {
	var observed uint64
	th := NewThread(newTestGate(t), 7, "worker", func(ctx *Context) {
		if ctx.ThreadID() != 7 {
			t.Error("wrong thread id")
		}
		ctx.Compute(100)
		ctx.Store32(0x1000, 42)
		observed = uint64(ctx.Load32(0x1000))
	})
	ops := drive(t, th, func(op Op) Result {
		if op.Kind == OpLoad {
			return Result{Value: 42}
		}
		return Result{}
	})
	if len(ops) != 3 {
		t.Fatalf("saw %d ops, want 3", len(ops))
	}
	if ops[0].Kind != OpCompute || ops[0].Instrs != 100 {
		t.Fatalf("first op = %+v", ops[0])
	}
	if ops[1].Kind != OpStore || ops[1].Addr != 0x1000 || ops[1].Value != 42 || ops[1].Size != 4 {
		t.Fatalf("second op = %+v", ops[1])
	}
	if ops[2].Kind != OpLoad {
		t.Fatalf("third op = %+v", ops[2])
	}
	if observed != 42 {
		t.Fatalf("thread observed %d", observed)
	}
	if !th.Finished() {
		t.Fatal("thread not marked finished")
	}
}

func TestContextTypedAccessors(t *testing.T) {
	memory := map[mem.VAddr]uint64{}
	th := NewThread(newTestGate(t), 0, "typed", func(ctx *Context) {
		ctx.Store64(0x10, 0xdeadbeef12345678)
		ctx.Store8(0x20, 0xab)
		ctx.StoreFloat64(0x30, 3.5)
		ctx.StoreFloat32(0x40, 1.25)
		if ctx.Load64(0x10) != 0xdeadbeef12345678 {
			t.Error("Load64 wrong")
		}
		if ctx.Load8(0x20) != 0xab {
			t.Error("Load8 wrong")
		}
		if ctx.LoadFloat64(0x30) != 3.5 {
			t.Error("LoadFloat64 wrong")
		}
		if ctx.LoadFloat32(0x40) != 1.25 {
			t.Error("LoadFloat32 wrong")
		}
	})
	drive(t, th, func(op Op) Result {
		switch op.Kind {
		case OpStore:
			memory[op.Addr] = op.Value
			return Result{}
		case OpLoad:
			return Result{Value: memory[op.Addr]}
		}
		return Result{}
	})
}

func TestContextAtomics(t *testing.T) {
	val := uint64(10)
	th := NewThread(newTestGate(t), 0, "atomics", func(ctx *Context) {
		if old := ctx.AtomicAdd64(0x100, 5); old != 10 {
			t.Errorf("AtomicAdd64 old = %d", old)
		}
		if old := ctx.AtomicAdd32(0x100, 1); old != 15 {
			t.Errorf("AtomicAdd32 old = %d", old)
		}
		if !ctx.AtomicCAS32(0x100, 16, 99) {
			t.Error("CAS should succeed")
		}
		if ctx.AtomicCAS32(0x100, 16, 77) {
			t.Error("CAS should fail")
		}
		if old := ctx.AtomicExchange32(0x100, 1); old != 99 {
			t.Errorf("exchange old = %d", old)
		}
	})
	drive(t, th, func(op Op) Result {
		if op.Kind != OpRMW {
			t.Fatalf("expected RMW, got %v", op.Kind)
		}
		old := val
		val = op.ApplyRMW(old)
		return Result{Value: old}
	})
}

func TestContextSyscall(t *testing.T) {
	th := NewThread(newTestGate(t), 0, "sys", func(ctx *Context) {
		if ret := ctx.Syscall(3, 1, 2); ret != 42 {
			t.Errorf("syscall returned %d", ret)
		}
	})
	ops := drive(t, th, func(op Op) Result {
		if op.Kind == OpSyscall {
			if op.Syscall != 3 || len(op.Args) != 2 {
				t.Errorf("syscall op = %+v", op)
			}
			return Result{Value: 42}
		}
		return Result{}
	})
	if len(ops) != 1 {
		t.Fatalf("saw %d ops", len(ops))
	}
}

func TestComputeZeroIsFree(t *testing.T) {
	th := NewThread(newTestGate(t), 0, "zero", func(ctx *Context) {
		ctx.Compute(0)
		ctx.Compute(-5)
	})
	ops := drive(t, th, func(Op) Result { return Result{} })
	if len(ops) != 0 {
		t.Fatalf("zero/negative compute produced %d ops", len(ops))
	}
}

func TestThreadPanicIsCaptured(t *testing.T) {
	th := NewThread(newTestGate(t), 0, "boom", func(ctx *Context) {
		ctx.Compute(1)
		panic("workload bug")
	})
	ops := driveRaw(t, th, func(Op) Result { return Result{} })
	if len(ops) != 1 || ops[0].Kind != OpCompute {
		t.Fatalf("ops = %+v, want the compute op first", ops)
	}
	if !th.Finished() {
		t.Fatal("panicked thread not finished")
	}
	if th.Err() != "workload bug" {
		t.Fatalf("Err() = %v", th.Err())
	}
}

func TestThreadKill(t *testing.T) {
	th := NewThread(newTestGate(t), 0, "spin", func(ctx *Context) {
		for {
			ctx.Compute(10)
		}
	})
	// Publish the first op but never complete it: Drive returns with the
	// thread parked mid-operation, the state machines tear threads down in.
	eng := &microQ{}
	th.Start()
	eng.at(func() {
		if op, st := th.TryNext(nil); st != NextOp || op.Kind != OpCompute {
			t.Errorf("first fetch = %v, %v", op, st)
		}
	})
	th.gate.Drive(eng.step)
	th.Kill()
	if !th.Finished() {
		t.Fatal("killed thread not finished")
	}
	if th.Err() != nil {
		t.Fatalf("kill should not report an error, got %v", th.Err())
	}
	// Killing again is a no-op.
	th.Kill()
}

func TestThreadDoubleStartPanics(t *testing.T) {
	th := NewThread(newTestGate(t), 0, "x", func(ctx *Context) {})
	driveRaw(t, th, func(Op) Result { return Result{} })
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double start")
		}
	}()
	th.Start()
}

func TestOpKindString(t *testing.T) {
	kinds := []OpKind{OpCompute, OpLoad, OpStore, OpRMW, OpSyscall}
	for _, k := range kinds {
		if k.String() == "" {
			t.Fatalf("kind %d has empty name", k)
		}
	}
}

func TestThreadKillBeforeLaunch(t *testing.T) {
	ran := false
	th := NewThread(newTestGate(t), 0, "parked", func(ctx *Context) {
		ran = true
		ctx.Compute(10)
	})
	// Started but never stepped: the workload goroutine launches lazily on
	// the first TryNext, so Kill must tear the thread down without one.
	th.Start()
	th.Kill()
	if !th.Finished() {
		t.Fatal("killed unlaunched thread not finished")
	}
	// A later fetch (a core pulling the thread from its run queue after a
	// machine shutdown) must not resurrect the workload.
	if _, st := th.TryNext(nil); st != NextDone {
		t.Fatal("TryNext on a killed thread returned an op")
	}
	if ran {
		t.Fatal("killed thread's workload function ran")
	}
}

// TestGateCrossThreadCompletionOrder pins the queue discipline: when one
// event completes several threads' operations, their between-ops code runs
// in completion order.
func TestGateCrossThreadCompletionOrder(t *testing.T) {
	g := newTestGate(t)
	eng := &microQ{}
	var order []int
	threads := make([]*Thread, 3)
	for i := range threads {
		id := i
		threads[i] = NewThread(g, id, "t", func(ctx *Context) {
			ctx.Compute(1)
			order = append(order, id)
		})
	}
	// Launch each thread (publishing its compute op), then complete all
	// three from a single "event" in reverse launch order — registering a
	// fetch continuation first, like a core does, so each thread's exit is
	// observed.
	eng.at(func() {
		for _, th := range threads {
			th.Start()
			if _, st := th.TryNext(nil); st != NextOp {
				t.Errorf("launch fetch = %v", st)
			}
		}
		for _, i := range []int{2, 0, 1} {
			th := threads[i]
			var fetch func()
			fetch = func() { th.TryNext(fetch) }
			if _, st := th.TryNext(fetch); st != NextWait {
				t.Errorf("pre-completion fetch = %v, want NextWait", st)
			}
			th.Complete(Result{})
		}
	})
	g.Drive(eng.step)
	want := []int{2, 0, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("activation order %v, want %v", order, want)
		}
	}
}

// TestGateRecyclesThreads pins the gate's ownership of its threads: a
// finished thread comes back from NewThread, reset but with its records; a
// gate that has an unfinished or a killed thread takes none back; and
// threads drained from one gate serve the next.
func TestGateRecyclesThreads(t *testing.T) {
	type counter struct{ n int }
	type label struct{ s string }
	g := newTestGate(t)
	first := NewThread(g, 1, "first", func(c *Context) {
		c.Record().(*counter).n++
		c.Compute(1)
		panic("workload bug")
	})
	RecordOf[counter](first).n = 41
	driveRaw(t, first, func(Op) Result { return Result{} })
	if first.Err() == nil || RecordOf[counter](first).n != 42 {
		t.Fatalf("first use: err %v, record %+v", first.Err(), RecordOf[counter](first))
	}
	if !g.RecycleThreads() || g.Threads() != 0 {
		t.Fatalf("RecycleThreads refused a gate whose one thread finished, or kept %d handed out", g.Threads())
	}

	// A second runtime's record joins the first one's, and the thread
	// function sees the record asked for last.
	var ran []string
	again := NewThread(g, 2, "again", func(c *Context) { ran = append(ran, c.Record().(*label).s) })
	if again != first {
		t.Fatal("NewThread built a thread with a finished one to reuse")
	}
	RecordOf[label](again).s = "second runtime"
	if again.Err() != nil || again.Finished() || again.Name() != "again" || again.ID() != 2 {
		t.Fatalf("reused thread: err %v, finished %v, name %q, id %d; want a fresh thread 2",
			again.Err(), again.Finished(), again.Name(), again.ID())
	}
	drive(t, again, func(Op) Result { return Result{} })
	if len(ran) != 1 || ran[0] != "second runtime" || RecordOf[counter](again).n != 42 {
		t.Fatalf("reused thread read records %q and kept counter %+v, want the second runtime's and 42",
			ran, RecordOf[counter](again))
	}

	unstarted := NewThread(g, 3, "unstarted", func(*Context) {})
	if g.RecycleThreads() || g.Threads() != 2 {
		t.Fatalf("RecycleThreads took back a gate with an unfinished thread (%d handed out)", g.Threads())
	}
	g.KillAll()
	if !unstarted.Finished() || g.RecycleThreads() {
		t.Fatal("RecycleThreads took back a gate with a killed thread")
	}

	parked := g.DrainThreads()
	if len(parked) != 2 || g.Threads() != 0 {
		t.Fatalf("DrainThreads returned %d threads and left %d handed out, want 2 and 0", len(parked), g.Threads())
	}
	next := newTestGate(t)
	next.SeedThreads(parked)
	if NewThread(next, 4, "seeded", func(*Context) {}) != parked[0] {
		t.Fatal("a seeded gate built a thread with drained ones to reuse")
	}
}

// TestNumberedThreadName: a numbered thread's name is its prefix and its id,
// formatted when read, and a thread reused under NewThread reads its plain
// name again.
func TestNumberedThreadName(t *testing.T) {
	g := newTestGate(t)
	th := NewNumberedThread(g, 42, "cl-k1-wi", func(*Context) {})
	if got := th.Name(); got != "cl-k1-wi42" {
		t.Fatalf("numbered thread is named %q, want %q", got, "cl-k1-wi42")
	}
	drive(t, th, func(Op) Result { return Result{} })
	if !g.RecycleThreads() {
		t.Fatal("RecycleThreads kept a finished thread")
	}
	if again := NewThread(g, 7, "main", func(*Context) {}); again != th || again.Name() != "main" {
		t.Fatalf("reused thread is named %q, want %q", again.Name(), "main")
	}
}

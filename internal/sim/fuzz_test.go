package sim

import (
	"testing"
	"testing/quick"
)

// queueUnderTest abstracts the production engine and the naive reference
// model so one script interpreter can drive both and demand bit-identical
// behaviour: same firing order, same final time, same trace hash.
type queueUnderTest interface {
	schedule(d Duration, fn func())
	scheduleArg(d Duration, fn func(int), id int)
	step() bool
	now() Time
	hash() uint64
}

type realQueue struct{ e *Engine }

func (q realQueue) schedule(d Duration, fn func()) { q.e.Schedule(d, fn) }

func (q realQueue) scheduleArg(d Duration, fn func(int), id int) {
	q.e.ScheduleArg(d, func(a any) { fn(a.(int)) }, id)
}

func (q realQueue) step() bool   { return q.e.Step() }
func (q realQueue) now() Time    { return q.e.Now() }
func (q realQueue) hash() uint64 { return q.e.TraceHash() }

type refQueue struct{ r *refEngine }

func (q refQueue) schedule(d Duration, fn func()) { q.r.schedule(d, fn) }

func (q refQueue) scheduleArg(d Duration, fn func(int), id int) {
	q.r.schedule(d, func() { fn(id) })
}

func (q refQueue) step() bool   { return q.r.step() }
func (q refQueue) now() Time    { return q.r.now }
func (q refQueue) hash() uint64 { return q.r.hash }

// scriptResult is everything a script execution observes; both queue
// implementations must produce equal results for the same script.
type scriptResult struct {
	order []int
	now   Time
	hash  uint64
}

// runQueueScript interprets a byte script against q. Each script byte is one
// action — schedule a closure or an arg-carrying event, in the calendar
// window or beyond it, or step one event — so fuzzing interleaves every
// public queue entry point with the fused dispatch path. Every fired event
// additionally consumes the next unconsumed script byte (if any) to decide
// whether to schedule a nested event, so nested scheduling replays
// identically on both engines as long as the firing order matches — which is
// the property under test.
func runQueueScript(t *testing.T, script []byte, q queueUnderTest) scriptResult {
	t.Helper()
	res := scriptResult{}
	nextID := 0
	pos := 0
	nextByte := func() (byte, bool) {
		if pos >= len(script) {
			return 0, false
		}
		b := script[pos]
		pos++
		return b, true
	}

	var scheduleClosure func(d Duration)
	rec := func(id int) {
		res.order = append(res.order, id)
		if b, ok := nextByte(); ok && b&3 == 3 {
			scheduleClosure(scriptDelay(b))
		}
	}
	scheduleClosure = func(d Duration) {
		id := nextID
		nextID++
		q.schedule(d, func() { rec(id) })
	}
	scheduleArg := func(d Duration) {
		id := nextID
		nextID++
		q.scheduleArg(d, rec, id)
	}

	for pos < len(script) {
		b, _ := nextByte()
		switch b & 7 {
		case 0, 3, 7:
			scheduleClosure(scriptDelay(b))
		case 1:
			scheduleArg(scriptDelay(b))
		case 2, 4:
			q.step()
		case 5:
			scheduleArg(scriptDelay(b | 0x80)) // force the overflow heap
		case 6:
			scheduleClosure(scriptDelay(b | 0x80))
		}
	}
	for q.step() {
	}
	res.now = q.now()
	res.hash = q.hash()
	return res
}

// diffScriptResults fails the test when two executions of the same script
// observed different behaviour.
func diffScriptResults(t *testing.T, real, ref scriptResult) {
	t.Helper()
	if len(real.order) != len(ref.order) {
		t.Fatalf("engine fired %d events, reference fired %d", len(real.order), len(ref.order))
	}
	for i := range real.order {
		if real.order[i] != ref.order[i] {
			t.Fatalf("firing order diverges at %d: engine %v, reference %v", i, real.order, ref.order)
		}
	}
	if real.now != ref.now {
		t.Fatalf("final time diverges: engine %v, reference %v", real.now, ref.now)
	}
	if real.hash != ref.hash {
		t.Fatalf("trace hash diverges: engine %#x, reference %#x", real.hash, ref.hash)
	}
}

func runScriptBothWays(t *testing.T, script []byte) {
	t.Helper()
	e := NewEngine()
	e.EnableTraceHash()
	real := runQueueScript(t, script, realQueue{e})
	if e.LiveEvents() != 0 {
		t.Fatalf("drained engine has %d live events, want 0", e.LiveEvents())
	}
	ref := runQueueScript(t, script, refQueue{&refEngine{hash: fnvOffset}})
	diffScriptResults(t, real, ref)
}

// FuzzEngineQueue feeds a byte-encoded script — interleaved schedule (At),
// AtArg and Step actions plus nested scheduling from callbacks — to the
// production engine (calendar ring + overflow heap + event pool + cached next
// candidate) and to the naive refEngine specification, and requires
// bit-identical execution: the same (time, seq) firing order, the same final
// simulated time, and the same trace hash. It also asserts the event pool's
// live-object count returns to zero once the queue drains.
func FuzzEngineQueue(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0x01, 0x42, 0x81, 0xc3, 0x07, 0xff, 0x10})
	f.Add([]byte{0x03, 0x03, 0x03, 0x80, 0x80, 0x41, 0x02, 0x9f, 0x60, 0x33})
	// Steps slicing a schedule into segments, with far-future arg events.
	f.Add([]byte{0x00, 0x09, 0x85, 0x0c, 0x11, 0x04, 0x30, 0x2c, 0x06, 0x84})
	// Scheduling ahead of the cached candidate between steps.
	f.Add([]byte{0x08, 0x02, 0x10, 0x0a, 0x04, 0x12, 0x86, 0x05, 0x44})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 512 {
			script = script[:512]
		}
		runScriptBothWays(t, script)
	})
}

// TestEngineQueueScriptProperty is the deterministic (go test) face of the
// fuzz harness: randomized scripts through testing/quick must hold the same
// engine-equals-reference property, so the interleaved At/AtArg/Step
// coverage runs on every CI test pass, not just fuzz runs.
func TestEngineQueueScriptProperty(t *testing.T) {
	prop := func(script []byte) bool {
		if len(script) > 512 {
			script = script[:512]
		}
		runScriptBothWays(t, script) // fails the test directly on divergence
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// scriptDelay maps an action byte to a delay that lands in the calendar
// window (low bytes) or the overflow heap (high bytes), so both queue levels
// are exercised by most scripts.
func scriptDelay(b byte) Duration {
	if b&0x80 != 0 {
		return Duration(int(b&0x7f))*2048 + 70_000 // beyond the ~65 ns window
	}
	return Duration(int(b) * 40) // inside the calendar ring
}

// TestEngineLiveEventsAccounting pins the live-event pool accounting: queued
// events count as live, and a fully drained queue returns to zero.
func TestEngineLiveEventsAccounting(t *testing.T) {
	e := NewEngine()
	if e.LiveEvents() != 0 {
		t.Fatalf("fresh engine has %d live events", e.LiveEvents())
	}
	e.Schedule(10, func() {})
	e.Schedule(20, func() {})
	if e.LiveEvents() != 2 {
		t.Fatalf("live = %d after two schedules, want 2", e.LiveEvents())
	}
	e.Step()
	if e.LiveEvents() != 1 {
		t.Fatalf("live = %d after one step, want 1", e.LiveEvents())
	}
	e.Run()
	if e.LiveEvents() != 0 {
		t.Fatalf("live = %d after drain, want 0", e.LiveEvents())
	}
}

// TestEngineTraceHash pins the trace-hash fingerprint: identical schedules
// hash identically, and a schedule that executes different events (or the
// same events in a different order) hashes differently.
func TestEngineTraceHash(t *testing.T) {
	run := func(delays []Duration) uint64 {
		e := NewEngine()
		e.EnableTraceHash()
		for _, d := range delays {
			e.Schedule(d, func() {})
		}
		e.Run()
		return e.TraceHash()
	}
	a := run([]Duration{5, 10, 15})
	b := run([]Duration{5, 10, 15})
	c := run([]Duration{5, 10, 16})
	if a != b {
		t.Fatalf("identical runs hash differently: %#x vs %#x", a, b)
	}
	if a == c {
		t.Fatalf("different runs hash identically: %#x", a)
	}
	if (&Engine{}).TraceHash() != 0 {
		t.Fatal("trace hash should be zero before EnableTraceHash")
	}
}

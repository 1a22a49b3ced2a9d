package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// refEngine is a deliberately naive event queue — a flat slice scanned for
// the (time, seq) minimum on every step — used as the specification the
// calendar-queue/pooled engine must match, including the (time, seq) trace
// hash.
type refEngine struct {
	now  Time
	seq  uint64
	evs  []*refEvent
	hash uint64
}

type refEvent struct {
	when Time
	seq  uint64
	fn   func()
}

func (r *refEngine) schedule(d Duration, fn func()) {
	r.evs = append(r.evs, &refEvent{when: r.now.Add(d), seq: r.seq, fn: fn})
	r.seq++
}

func (r *refEngine) step() bool {
	best := -1
	for i, ev := range r.evs {
		if best < 0 || ev.when < r.evs[best].when ||
			(ev.when == r.evs[best].when && ev.seq < r.evs[best].seq) {
			best = i
		}
	}
	if best < 0 {
		return false
	}
	ev := r.evs[best]
	r.evs = append(r.evs[:best], r.evs[best+1:]...)
	r.now = ev.when
	r.hash = fnvMix(fnvMix(r.hash, uint64(ev.when)), ev.seq)
	ev.fn()
	return true
}

// TestEngineMatchesReferenceModel drives the production engine and the naive
// reference through the same randomized workload — a mix of near-future
// (calendar) and far-future (overflow heap) delays and nested scheduling from
// callbacks — and requires the exact same execution order.
func TestEngineMatchesReferenceModel(t *testing.T) {
	// Both runs draw identical schedule decisions from the same rng
	// as long as execution order matches; any divergence desynchronizes the
	// streams and fails the comparison, which is exactly what we want.
	type driver struct {
		order  []int
		nextID int
	}
	// randomDelay mixes delays inside the ~65 ns calendar window with delays
	// far beyond it, so both queue levels are exercised.
	randomDelay := func(rng *rand.Rand) Duration {
		if rng.Intn(4) == 0 {
			return Duration(rng.Intn(500_000)) // far future: overflow heap
		}
		return Duration(rng.Intn(3_000)) // near future: calendar buckets
	}

	runReal := func(seed int64) []int {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		d := &driver{}
		var fire func(id int) func()
		fire = func(id int) func() {
			return func() {
				d.order = append(d.order, id)
				for k := rng.Intn(3); k > 0 && d.nextID < 400; k-- {
					e.Schedule(randomDelay(rng), fire(d.nextID))
					d.nextID++
				}
			}
		}
		for ; d.nextID < 50; d.nextID++ {
			e.Schedule(randomDelay(rng), fire(d.nextID))
		}
		e.Run()
		return d.order
	}
	runRef := func(seed int64) []int {
		rng := rand.New(rand.NewSource(seed))
		r := &refEngine{}
		d := &driver{}
		var fire func(id int) func()
		fire = func(id int) func() {
			return func() {
				d.order = append(d.order, id)
				for k := rng.Intn(3); k > 0 && d.nextID < 400; k-- {
					r.schedule(randomDelay(rng), fire(d.nextID))
					d.nextID++
				}
			}
		}
		for ; d.nextID < 50; d.nextID++ {
			r.schedule(randomDelay(rng), fire(d.nextID))
		}
		for r.step() {
		}
		return d.order
	}

	f := func(seed int64) bool {
		a := runReal(seed)
		b := runRef(seed)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return len(a) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func nopArg(any) {}

// TestEngineAtArg checks that the allocation-free scheduling variant passes
// its argument through and interleaves with closure events in (time, seq)
// order.
func TestEngineAtArg(t *testing.T) {
	e := NewEngine()
	var got []any
	record := func(a any) { got = append(got, a) }
	e.AtArg(20, record, "b")
	e.At(10, func() { got = append(got, "a") })
	e.ScheduleArg(20, record, "c") // same time as "b": later seq, runs after
	e.Run()
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("got = %v, want [a b c]", got)
	}
}

// TestEngineSteadyStateAllocationFree proves the pool works: once warmed up,
// a schedule/fire cycle performs no heap allocation.
func TestEngineSteadyStateAllocationFree(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 1000; i++ {
		e.ScheduleArg(Duration(i%100), nopArg, nil)
	}
	e.Run()
	allocs := testing.AllocsPerRun(200, func() {
		e.ScheduleArg(50, nopArg, nil)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule+fire allocated %v objects/op, want 0", allocs)
	}
}

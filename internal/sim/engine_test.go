package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestClockBasics(t *testing.T) {
	cpu := NewClock("cpu", 2.9e9)
	if cpu.Period != 345 {
		t.Fatalf("cpu period = %d ps, want 345", cpu.Period)
	}
	mttop := NewClock("mttop", 600e6)
	if mttop.Period != 1667 {
		t.Fatalf("mttop period = %d ps, want 1667", mttop.Period)
	}
	if got := cpu.Cycles(10); got != 3450 {
		t.Fatalf("cpu.Cycles(10) = %v, want 3450", got)
	}
}

func TestNewClockPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero frequency")
		}
	}()
	NewClock("bad", 0)
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500 * Picosecond, "500ps"},
		{2 * Nanosecond, "2.000ns"},
		{3 * Microsecond, "3.000us"},
		{4 * Millisecond, "4.000ms"},
		{2 * Second, "2.000000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	// Same-time events run in scheduling order.
	e.Schedule(20, func() { order = append(order, 4) })
	e.Run()
	want := []int{1, 2, 4, 3}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now() = %v, want 30", e.Now())
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []Time
	e.Schedule(10, func() {
		times = append(times, e.Now())
		e.Schedule(5, func() {
			times = append(times, e.Now())
		})
	})
	e.Run()
	if len(times) != 2 || times[0] != 10 || times[1] != 15 {
		t.Fatalf("times = %v, want [10 15]", times)
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic when scheduling in the past")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

// TestEngineDeterminism is a property test: any batch of scheduled events
// executes in the same order regardless of how the random delays were drawn,
// when replayed with the same seed.
func TestEngineDeterminism(t *testing.T) {
	run := func(seed int64) []int {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var order []int
		for i := 0; i < 200; i++ {
			i := i
			e.Schedule(Duration(rng.Intn(50)), func() { order = append(order, i) })
		}
		e.Run()
		return order
	}
	f := func(seed int64) bool {
		a := run(seed)
		b := run(seed)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestPendingCounter exercises the O(1) pending counter against schedule,
// step and run sequences.
func TestPendingCounter(t *testing.T) {
	e := NewEngine()
	if e.Pending() != 0 {
		t.Fatalf("fresh engine Pending() = %d", e.Pending())
	}
	e.At(10, func() {})
	e.At(20, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", e.Pending())
	}
	if !e.Step() {
		t.Fatal("Step found no event")
	}
	if e.Pending() != 1 {
		t.Fatalf("after step Pending() = %d, want 1", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("after Run Pending() = %d, want 0", e.Pending())
	}
}

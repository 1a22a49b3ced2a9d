package mifd

import (
	"fmt"
	"testing"

	"ccsvm/internal/exec"
	"ccsvm/internal/mem"
	"ccsvm/internal/sim"
)

// fakeUnit is a ComputeUnit that runs threads to completion instantly.
type fakeUnit struct {
	id       int
	capacity int
	busy     int
	started  []int
	flushes  int
}

func (u *fakeUnit) FreeContexts() int { return u.capacity - u.busy }
func (u *fakeUnit) FlushTLB()         { u.flushes++ }
func (u *fakeUnit) StartThread(t *exec.Thread, cr3 mem.PAddr, onDone func()) {
	u.busy++
	u.started = append(u.started, t.ID())
	t.Start()
	// Kernels in these tests issue no ops, so the first fetch observes the
	// thread function return at the launch rendezvous.
	if _, st := t.TryNext(nil); st != exec.NextDone {
		panic("fakeUnit: test kernel issued an operation")
	}
	// Completion is reported immediately for these tests.
	u.busy--
	onDone()
}

func newTestDevice(t *testing.T, units ...*fakeUnit) (*Device, *sim.Engine) {
	t.Helper()
	engine := sim.NewEngine()
	gate := exec.NewGate()
	gate.Bind(engine)
	d := NewDevice(engine, DefaultConfig())
	for _, u := range units {
		d.AttachUnits(u)
	}
	d.SetThreadFactory(func(kernelID, tid int, args mem.VAddr) *exec.Thread {
		return exec.NewThread(gate, tid, fmt.Sprintf("k%d-t%d", kernelID, tid), func(ctx *exec.Context) {})
	})
	return d, engine
}

func TestLaunchDispatchesRoundRobin(t *testing.T) {
	u1 := &fakeUnit{id: 1, capacity: 100}
	u2 := &fakeUnit{id: 2, capacity: 100}
	d, engine := newTestDevice(t, u1, u2)
	d.Launch(TaskDescriptor{KernelID: 0, FirstTID: 0, LastTID: 9, CR3: 0x1000}, nil)
	engine.Run()
	if len(u1.started)+len(u2.started) != 10 {
		t.Fatalf("dispatched %d threads, want 10", len(u1.started)+len(u2.started))
	}
	if len(u1.started) == 0 || len(u2.started) == 0 {
		t.Fatalf("round robin did not use both units: %d/%d", len(u1.started), len(u2.started))
	}
	if d.ErrorRegister() != "" {
		t.Fatalf("unexpected error register: %q", d.ErrorRegister())
	}
}

func TestLaunchSetsErrorRegisterWhenOversubscribed(t *testing.T) {
	u := &fakeUnit{id: 1, capacity: 4}
	d, engine := newTestDevice(t, u)
	d.Launch(TaskDescriptor{KernelID: 0, FirstTID: 0, LastTID: 9, CR3: 0x1000}, nil)
	engine.Run()
	if d.ErrorRegister() == "" {
		t.Fatal("error register should record the shortfall")
	}
	// The fake unit frees contexts immediately, so all threads still ran.
	if len(u.started) != 10 {
		t.Fatalf("started %d, want 10", len(u.started))
	}
}

func TestLaunchTakesDispatchLatency(t *testing.T) {
	u := &fakeUnit{id: 1, capacity: 100}
	d, engine := newTestDevice(t, u)
	dispatched := sim.Time(0)
	d.Launch(TaskDescriptor{KernelID: 0, FirstTID: 0, LastTID: 7, CR3: 0}, func() {
		dispatched = engine.Now()
	})
	engine.Run()
	if dispatched < sim.Time(DefaultConfig().DispatchLatency) {
		t.Fatalf("dispatch completed at %v, want at least the dispatch latency", dispatched)
	}
}

func TestFlushAllTLBs(t *testing.T) {
	u1 := &fakeUnit{id: 1, capacity: 1}
	u2 := &fakeUnit{id: 2, capacity: 1}
	d, _ := newTestDevice(t, u1, u2)
	d.FlushAllTLBs()
	d.FlushAllTLBs()
	if u1.flushes != 2 || u2.flushes != 2 {
		t.Fatalf("flush broadcasts not delivered: %d/%d", u1.flushes, u2.flushes)
	}
}

func TestTaskDescriptorThreads(t *testing.T) {
	if (TaskDescriptor{FirstTID: 3, LastTID: 7}).Threads() != 5 {
		t.Fatal("Threads() wrong")
	}
}

func TestLaunchInvalidRangePanics(t *testing.T) {
	u := &fakeUnit{id: 1, capacity: 1}
	d, _ := newTestDevice(t, u)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for inverted thread range")
		}
	}()
	d.Launch(TaskDescriptor{FirstTID: 5, LastTID: 2}, nil)
}

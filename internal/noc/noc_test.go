package noc

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ccsvm/internal/sim"
)

// sink records delivered messages with their arrival times.
type sink struct {
	engine   *sim.Engine
	arrivals []arrival
}

type arrival struct {
	msg *Message
	at  sim.Time
}

func (s *sink) Receive(m *Message) {
	s.arrivals = append(s.arrivals, arrival{msg: m, at: s.engine.Now()})
}

func buildTorus(t *testing.T, w, h int) (*sim.Engine, *Torus, map[NodeID]*sink) {
	t.Helper()
	engine := sim.NewEngine()
	placement := make(map[NodeID]Coord)
	id := NodeID(0)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			placement[id] = Coord{X: x, Y: y}
			id++
		}
	}
	torus := NewTorus(engine, DefaultTorusConfig(w, h), placement)
	sinks := make(map[NodeID]*sink)
	for n := range placement {
		s := &sink{engine: engine}
		sinks[n] = s
		torus.Attach(n, s)
	}
	return engine, torus, sinks
}

func TestTorusRouteEndpoints(t *testing.T) {
	_, torus, _ := buildTorus(t, 4, 4)
	path := torus.Route(0, 15) // (0,0) -> (3,3)
	if path[0] != (Coord{0, 0}) || path[len(path)-1] != (Coord{3, 3}) {
		t.Fatalf("route endpoints wrong: %v", path)
	}
	// Wraparound makes (0,0)->(3,3) a 2-hop trip in each dimension at most;
	// the shortest path here is 1 hop -X and 1 hop -Y.
	if got := torus.HopCount(0, 15); got != 2 {
		t.Fatalf("hop count = %d, want 2 (wraparound)", got)
	}
	if got := torus.HopCount(0, 0); got != 0 {
		t.Fatalf("self hop count = %d, want 0", got)
	}
}

// Property: routes are minimal — the hop count equals the torus Manhattan
// distance with wraparound, for random node pairs.
func TestTorusMinimalRoutingProperty(t *testing.T) {
	const w, h = 5, 3
	_, torus, _ := buildTorus(t, w, h)
	ringDist := func(a, b, size int) int {
		d := (a - b + size) % size
		if size-d < d {
			d = size - d
		}
		return d
	}
	f := func(sRaw, dRaw uint8) bool {
		src := NodeID(int(sRaw) % (w * h))
		dst := NodeID(int(dRaw) % (w * h))
		sc, _ := torus.Placement(src)
		dc, _ := torus.Placement(dst)
		want := ringDist(sc.X, dc.X, w) + ringDist(sc.Y, dc.Y, h)
		got := torus.HopCount(src, dst)
		path := torus.Route(src, dst)
		// Every step in the path must be a single-hop neighbour move.
		for i := 1; i < len(path); i++ {
			dx := ringDist(path[i-1].X, path[i].X, w)
			dy := ringDist(path[i-1].Y, path[i].Y, h)
			if dx+dy != 1 {
				return false
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTorusDelivery(t *testing.T) {
	engine, torus, sinks := buildTorus(t, 4, 4)
	torus.Send(&Message{Src: 0, Dst: 5, SizeBytes: 16, Payload: "hello"})
	engine.Run()
	got := sinks[5].arrivals
	if len(got) != 1 {
		t.Fatalf("destination received %d messages, want 1", len(got))
	}
	if got[0].msg.Payload != "hello" {
		t.Fatal("payload corrupted")
	}
	if got[0].at <= 0 {
		t.Fatal("delivery should take non-zero time")
	}
	for id, s := range sinks {
		if id != 5 && len(s.arrivals) != 0 {
			t.Fatalf("node %d received a stray message", id)
		}
	}
}

func TestTorusFIFOPerSourceDestination(t *testing.T) {
	engine, torus, sinks := buildTorus(t, 4, 4)
	const n = 50
	for i := 0; i < n; i++ {
		torus.Send(&Message{Src: 0, Dst: 10, SizeBytes: 16, Payload: i})
	}
	engine.Run()
	got := sinks[10].arrivals
	if len(got) != n {
		t.Fatalf("received %d, want %d", len(got), n)
	}
	for i, a := range got {
		if a.msg.Payload.(int) != i {
			t.Fatalf("message %d arrived out of order (payload %v)", i, a.msg.Payload)
		}
	}
}

func TestTorusFartherDestinationsTakeLonger(t *testing.T) {
	engine, torus, sinks := buildTorus(t, 8, 1)
	torus.Send(&Message{Src: 0, Dst: 1, SizeBytes: 16})
	torus.Send(&Message{Src: 0, Dst: 4, SizeBytes: 16})
	engine.Run()
	near := sinks[1].arrivals[0].at
	far := sinks[4].arrivals[0].at
	if far <= near {
		t.Fatalf("4-hop delivery (%v) should be slower than 1-hop (%v)", far, near)
	}
}

func TestTorusLinkContention(t *testing.T) {
	// Two messages that share the same outgoing link serialize; the second
	// arrives later than it would alone.
	engineA, torusA, sinksA := buildTorus(t, 8, 1)
	torusA.Send(&Message{Src: 0, Dst: 2, SizeBytes: 1024})
	engineA.Run()
	alone := sinksA[2].arrivals[0].at

	engineB, torusB, sinksB := buildTorus(t, 8, 1)
	torusB.Send(&Message{Src: 0, Dst: 1, SizeBytes: 1024})
	torusB.Send(&Message{Src: 0, Dst: 2, SizeBytes: 1024})
	engineB.Run()
	contended := sinksB[2].arrivals[0].at
	if contended <= alone {
		t.Fatalf("contended delivery (%v) should be slower than uncontended (%v)", contended, alone)
	}
}

// TestTorusAttachAndPlacementErrors: every misuse of a node id panics with
// its own message, whether the id lies past the placed range or inside it
// without a placement (node 1 below).
func TestTorusAttachAndPlacementErrors(t *testing.T) {
	engine := sim.NewEngine()
	placement := map[NodeID]Coord{0: {0, 0}, 2: {1, 0}}
	torus := NewTorus(engine, DefaultTorusConfig(2, 1), placement)
	s := &sink{engine: engine}
	torus.Attach(0, s)
	if _, ok := torus.Placement(1); ok {
		t.Error("Placement reports unplaced node 1 as placed")
	}
	for _, c := range []struct {
		name, want string
		fn         func()
	}{
		{"double attach", "attached twice", func() { torus.Attach(0, s) }},
		{"attach without placement", "no placement", func() { torus.Attach(99, s) }},
		{"attach unplaced id in range", "no placement", func() { torus.Attach(1, s) }},
		{"zero-size message", "non-positive size", func() { torus.Send(&Message{Src: 0, Dst: 2, SizeBytes: 0}) }},
		{"unknown source", "unknown source", func() { torus.Send(&Message{Src: 1, Dst: 0, SizeBytes: 8}) }},
		{"unknown destination", "unknown destination", func() { torus.Send(&Message{Src: 0, Dst: 99, SizeBytes: 8}) }},
		{"route from unknown node", "unknown source", func() { torus.Route(-1, 0) }},
		{"negative id", "negative id", func() { NewTorus(engine, DefaultTorusConfig(2, 1), map[NodeID]Coord{-1: {0, 0}}) }},
		{"placement outside torus", "outside", func() { NewTorus(engine, DefaultTorusConfig(2, 1), map[NodeID]Coord{0: {2, 0}}) }},
		{"unattached destination", "unattached node 2", func() {
			torus.Send(&Message{Src: 0, Dst: 2, SizeBytes: 8})
			engine.Run()
		}},
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), c.want) {
					t.Errorf("%s: panic %v, want one containing %q", c.name, r, c.want)
				}
			}()
			c.fn()
		}()
	}
}

// TestTorusMessageRecycling checks the pool contract: messages from
// NewMessage are recycled after delivery and reused, while caller-constructed
// messages are left alone so tests may retain them.
func TestTorusMessageRecycling(t *testing.T) {
	engine, torus, sinks := buildTorus(t, 2, 2)
	m := torus.NewMessage()
	m.Src, m.Dst, m.SizeBytes, m.Payload = 0, 1, 16, "pooled"
	torus.Send(m)
	engine.Run()
	if len(sinks[1].arrivals) != 1 {
		t.Fatalf("pooled message not delivered")
	}
	if got := torus.NewMessage(); got != m {
		t.Fatal("delivered pooled message was not recycled by NewMessage")
	} else if got.Payload != nil || got.SizeBytes != 0 {
		t.Fatalf("recycled message not zeroed: %+v", got)
	}

	direct := &Message{Src: 0, Dst: 1, SizeBytes: 16, Payload: "direct"}
	torus.Send(direct)
	engine.Run()
	if direct.Payload != "direct" {
		t.Fatal("caller-constructed message was clobbered by the pool")
	}
	if torus.NewMessage() == direct {
		t.Fatal("caller-constructed message must not enter the pool")
	}
}

// TestTorusSteadyStateSendAllocationFree proves the hot send path allocates
// nothing once the message pool and the engine's event pool are warm.
func TestTorusSteadyStateSendAllocationFree(t *testing.T) {
	engine, torus, _ := buildTorus(t, 4, 4)
	for i := 0; i < 100; i++ {
		m := torus.NewMessage()
		m.Src, m.Dst, m.SizeBytes = 0, 10, 80
		torus.Send(m)
	}
	engine.Run()
	allocs := testing.AllocsPerRun(100, func() {
		m := torus.NewMessage()
		m.Src, m.Dst, m.SizeBytes = 0, 10, 80
		torus.Send(m)
		engine.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state send+deliver allocated %v objects/op, want 0", allocs)
	}
}

// Property: random traffic on the torus is always fully delivered, to the
// right destinations, regardless of pattern.
func TestTorusRandomTrafficDelivered(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		engine, torus, sinks := buildTorus(t, 4, 3)
		want := make(map[NodeID]int)
		for i := 0; i < 200; i++ {
			src := NodeID(rng.Intn(12))
			dst := NodeID(rng.Intn(12))
			size := 16 + rng.Intn(64)
			torus.Send(&Message{Src: src, Dst: dst, SizeBytes: size})
			want[dst]++
		}
		engine.Run()
		for id, s := range sinks {
			if len(s.arrivals) != want[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

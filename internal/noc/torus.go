package noc

import (
	"fmt"

	"ccsvm/internal/sim"
	"ccsvm/internal/stats"
)

// Coord is a router coordinate in the 2D torus.
type Coord struct {
	X, Y int
}

// TorusConfig describes the 2D torus of Figure 1 / Table 2.
type TorusConfig struct {
	// Width and Height are the router grid dimensions.
	Width, Height int
	// LinkBandwidth is the per-link bandwidth in bytes per second
	// (12 GB/s in Table 2).
	LinkBandwidth float64
	// LinkLatency is the wire traversal latency per hop.
	LinkLatency sim.Duration
	// RouterLatency is the per-router processing latency per hop.
	RouterLatency sim.Duration
	// EjectLatency is the latency from the final router into the endpoint.
	EjectLatency sim.Duration
}

// DefaultTorusConfig returns the parameters used for the CCSVM chip: a torus
// sized by the caller with 12 GB/s links and one-cycle-ish router and link
// latencies.
func DefaultTorusConfig(width, height int) TorusConfig {
	return TorusConfig{
		Width:         width,
		Height:        height,
		LinkBandwidth: 12e9,
		LinkLatency:   500 * sim.Picosecond,
		RouterLatency: 500 * sim.Picosecond,
		EjectLatency:  200 * sim.Picosecond,
	}
}

// link is a directed link between adjacent routers with FIFO serialization.
type link struct {
	// freeAt is the earliest time the link can begin transmitting the next
	// message.
	freeAt sim.Time
}

// Torus is a 2D torus network with dimension-order (X then Y) routing and
// shortest-direction wraparound. Messages experience per-hop router and link
// latency plus serialization and FIFO contention on every link they cross.
type Torus struct {
	cfg    TorusConfig
	engine *sim.Engine

	// placement and receivers are indexed by NodeID: an unplaced node's
	// coordinate is {-1, -1}, an unattached node's receiver nil.
	placement []Coord
	receivers []Receiver

	// links[Y*Width+X][dir] leaves router (X, Y) in direction dir, which
	// indexes +X, -X, +Y, -Y.
	links [][4]link

	// pool recycles delivered messages; advanceFn/deliverFn are the hop and
	// ejection callbacks bound once so per-hop scheduling allocates nothing
	// (the walk state lives on the message itself).
	pool      msgPool
	advanceFn func(any)
	deliverFn func(any)

	Stats TorusStats
}

// TorusStats are the torus's traffic counters.
type TorusStats struct {
	// Messages and Bytes count sent messages and their payload.
	Messages, Bytes uint64
	// LatencyPs sums every delivered message's send-to-delivery time.
	LatencyPs uint64
}

const (
	dirPlusX = iota
	dirMinusX
	dirPlusY
	dirMinusY
)

// NewTorus builds a torus. placement maps every attachable node to its router
// coordinate; several nodes may share one router (e.g. an L2 bank and its
// directory bank). Node ids must not be negative. A trailing Registry is
// accepted and ignored (see stats.Registry).
func NewTorus(engine *sim.Engine, cfg TorusConfig, placement map[NodeID]Coord, _ ...*stats.Registry) *Torus {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		panic("noc: torus dimensions must be positive")
	}
	nodes := 0
	//ccsvm:orderinvariant
	for id, c := range placement {
		if id < 0 {
			panic(fmt.Sprintf("noc: node %d has a negative id", id))
		}
		if c.X < 0 || c.X >= cfg.Width || c.Y < 0 || c.Y >= cfg.Height {
			panic(fmt.Sprintf("noc: node %d placed at %v outside %dx%d torus", id, c, cfg.Width, cfg.Height))
		}
		nodes = max(nodes, int(id)+1)
	}
	t := &Torus{
		cfg:       cfg,
		engine:    engine,
		placement: make([]Coord, nodes),
		receivers: make([]Receiver, nodes),
		links:     make([][4]link, cfg.Width*cfg.Height),
	}
	for i := range t.placement {
		t.placement[i] = Coord{-1, -1}
	}
	//ccsvm:orderinvariant
	for id, c := range placement {
		t.placement[id] = c
	}
	t.advanceFn = func(a any) { t.advance(a.(*Message)) }
	t.deliverFn = func(a any) { t.deliver(a.(*Message)) }
	return t
}

// NewMessage returns a message from the network's free list for the hot send
// path. The network recycles it after delivery (see Message), so senders fill
// it, Send it, and never touch it again.
func (t *Torus) NewMessage() *Message { return t.pool.get() }

// DrainFreeList removes and returns the network's parked message envelopes,
// for recycling into the next machine's torus (see SeedFreeList). It hands
// over the free list's own slice, copying nothing.
func (t *Torus) DrainFreeList() []*Message { return t.pool.drain() }

// SeedFreeList hands previously drained envelopes to this network's pool; an
// empty pool adopts the slice itself.
func (t *Torus) SeedFreeList(ms []*Message) { t.pool.seed(ms) }

// Attach registers the receiver for a node ID. It panics if the node has no
// placement or is already attached, which catches wiring bugs at
// machine-build time.
func (t *Torus) Attach(id NodeID, r Receiver) {
	if _, ok := t.Placement(id); !ok {
		panic(fmt.Sprintf("noc: node %d has no placement on the torus", id))
	}
	if t.receivers[id] != nil {
		panic(fmt.Sprintf("noc: node %d attached twice", id))
	}
	t.receivers[id] = r
}

// Placement reports the coordinate of a node, and false for a node the torus
// has no placement for.
func (t *Torus) Placement(id NodeID) (Coord, bool) {
	if uint(id) >= uint(len(t.placement)) {
		return Coord{}, false
	}
	c := t.placement[id]
	return c, c.X >= 0
}

// Route returns the sequence of coordinates a message visits from src to dst
// (inclusive of both), using X-then-Y dimension-order routing with
// shortest-direction wraparound.
func (t *Torus) Route(src, dst NodeID) []Coord {
	s, ok := t.Placement(src)
	if !ok {
		panic(fmt.Sprintf("noc: unknown source node %d", src))
	}
	d, ok := t.Placement(dst)
	if !ok {
		panic(fmt.Sprintf("noc: unknown destination node %d", dst))
	}
	path := []Coord{s}
	cur := s
	for cur.X != d.X {
		cur.X = t.stepToward(cur.X, d.X, t.cfg.Width)
		path = append(path, cur)
	}
	for cur.Y != d.Y {
		cur.Y = t.stepToward(cur.Y, d.Y, t.cfg.Height)
		path = append(path, cur)
	}
	return path
}

// HopCount reports the number of link traversals between two nodes.
func (t *Torus) HopCount(src, dst NodeID) int { return len(t.Route(src, dst)) - 1 }

// stepToward moves one position from cur toward dst around a ring of the
// given size, taking the shorter direction (ties go in the + direction).
func (t *Torus) stepToward(cur, dst, size int) int {
	forward := (dst - cur + size) % size
	backward := (cur - dst + size) % size
	if forward <= backward {
		return (cur + 1) % size
	}
	return (cur - 1 + size) % size
}

func dirOf(from, to Coord, width, height int) int {
	switch {
	case to.X == (from.X+1)%width && to.Y == from.Y:
		return dirPlusX
	case to.X == (from.X-1+width)%width && to.Y == from.Y:
		return dirMinusX
	case to.Y == (from.Y+1)%height && to.X == from.X:
		return dirPlusY
	case to.Y == (from.Y-1+height)%height && to.X == from.X:
		return dirMinusY
	default:
		panic(fmt.Sprintf("noc: %v -> %v is not a single hop", from, to))
	}
}

// serialization returns how long a message of the given size occupies a link.
func (t *Torus) serialization(sizeBytes int) sim.Duration {
	if t.cfg.LinkBandwidth <= 0 {
		return 0
	}
	ps := float64(sizeBytes) / t.cfg.LinkBandwidth * float64(sim.Second)
	return sim.Duration(ps + 0.5)
}

// Send accepts a message for delivery. Delivery order between a given source
// and destination pair is preserved: routing is dimension-order and links are
// FIFO. The message is walked hop by hop; each hop charges
// router latency, waits for the outgoing link to be free, occupies it for the
// serialization time, and traverses it in the link latency. The walk state
// lives on the message, so sending allocates no path slice and each hop
// schedules without a closure.
func (t *Torus) Send(msg *Message) {
	if msg.SizeBytes <= 0 {
		panic("noc: message with non-positive size")
	}
	src, ok := t.Placement(msg.Src)
	if !ok {
		panic(fmt.Sprintf("noc: unknown source node %d", msg.Src))
	}
	dst, ok := t.Placement(msg.Dst)
	if !ok {
		panic(fmt.Sprintf("noc: unknown destination node %d", msg.Dst))
	}
	msg.Enqueued = t.engine.Now()
	msg.cur, msg.dst = src, dst
	t.Stats.Messages++
	t.Stats.Bytes += uint64(msg.SizeBytes)
	t.advance(msg)
}

// advance moves the message one hop toward its destination (X dimension
// first, then Y); at the destination router the message is ejected into the
// endpoint.
func (t *Torus) advance(msg *Message) {
	now := t.engine.Now()
	if msg.cur == msg.dst {
		t.engine.AtArg(now.Add(t.cfg.EjectLatency), t.deliverFn, msg)
		return
	}
	next := msg.cur
	if next.X != msg.dst.X {
		next.X = t.stepToward(next.X, msg.dst.X, t.cfg.Width)
	} else {
		next.Y = t.stepToward(next.Y, msg.dst.Y, t.cfg.Height)
	}
	dir := dirOf(msg.cur, next, t.cfg.Width, t.cfg.Height)
	lnk := &t.links[msg.cur.Y*t.cfg.Width+msg.cur.X][dir]

	// Router processing before the link.
	readyAt := now.Add(t.cfg.RouterLatency)
	start := readyAt
	if lnk.freeAt > start {
		start = lnk.freeAt
	}
	ser := t.serialization(msg.SizeBytes)
	lnk.freeAt = start.Add(ser)
	arrive := start.Add(ser).Add(t.cfg.LinkLatency)
	msg.cur = next
	t.engine.AtArg(arrive, t.advanceFn, msg)
}

func (t *Torus) deliver(msg *Message) {
	r := t.receivers[msg.Dst]
	if r == nil {
		panic(fmt.Sprintf("noc: message to unattached node %d", msg.Dst))
	}
	t.Stats.LatencyPs += uint64(t.engine.Now().Sub(msg.Enqueued))
	r.Receive(msg)
	t.pool.put(msg)
}

package noc

import (
	"fmt"

	"ccsvm/internal/sim"
)

// NodeID identifies an endpoint attached to the network (a core's L1
// controller, an L2/directory bank, a memory controller, or the MIFD).
type NodeID int

// Message is the unit of transfer on the network. The coherence protocol
// stores its own payload in Payload; the network only needs source,
// destination and size.
//
// Messages obtained from Torus.NewMessage are recycled by the network after
// delivery: they are valid inside Receiver.Receive but must not be retained
// afterwards. Messages constructed directly (&Message{...}) are never
// recycled, so tests may hold on to them.
type Message struct {
	// Src and Dst are the endpoints.
	Src, Dst NodeID
	// SizeBytes is the total message size used for link serialization.
	// Control messages are typically 8-16 bytes, data messages carry a
	// 64-byte cache line plus a header.
	SizeBytes int
	// Payload is the protocol-level content, opaque to the network.
	Payload any
	// Enqueued is stamped by the network when the message is accepted, for
	// latency accounting.
	Enqueued sim.Time

	// fromPool marks messages owned by a network free list; only those are
	// recycled after delivery.
	fromPool bool
	// cur and dst are the torus routing state: the router the message sits
	// at and its destination coordinate. Keeping the walk state on the
	// message (the "flit buffer") avoids allocating a path slice per send.
	cur, dst Coord
}

// String formats the message for traces.
func (m *Message) String() string {
	return fmt.Sprintf("msg %d->%d (%dB)", m.Src, m.Dst, m.SizeBytes)
}

// msgPool is a network-owned free list of messages. Each network instance
// has its own pool, so parallel runs share no mutable state.
type msgPool struct {
	free []*Message
}

// get returns a zeroed pooled message.
//
//ccsvm:pooled get
//ccsvm:hotpath
func (p *msgPool) get() *Message {
	if n := len(p.free); n > 0 {
		m := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return m
	}
	return &Message{fromPool: true} //ccsvm:allocok // pool miss; steady state reuses the free list
}

// put recycles a delivered pooled message; caller-constructed messages are
// left alone.
//
//ccsvm:pooled put
//ccsvm:hotpath
func (p *msgPool) put(m *Message) {
	if !m.fromPool {
		return
	}
	*m = Message{fromPool: true}
	p.free = append(p.free, m) //ccsvm:allocok // free list returns to its high-water mark
}

// drain removes and returns every free message, handing over the free
// list's own slice rather than copying it.
func (p *msgPool) drain() []*Message {
	ms := p.free
	p.free = nil
	return ms
}

// seed hands previously drained messages to the free list; an empty pool
// adopts the slice itself.
func (p *msgPool) seed(ms []*Message) {
	if len(p.free) == 0 {
		p.free = ms
		return
	}
	p.free = append(p.free, ms...)
}

// Receiver is implemented by every endpoint attached to a network; the
// network calls Receive when a message arrives, at the arrival time on the
// simulation clock.
type Receiver interface {
	Receive(msg *Message)
}

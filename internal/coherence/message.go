// Package coherence implements the MOESI directory cache-coherence protocol
// of the CCSVM chip: the per-core L1 cache controllers and the banked
// L2/directory controller, communicating over the on-chip network. The
// protocol follows Section 3.2.2 of the paper: an unoptimized full-map MOESI
// directory embedded with the shared, inclusive L2, treating CPU and MTTOP
// cores identically, and maintaining the single-writer/multiple-reader (SWMR)
// invariant.
//
//ccsvm:deterministic
package coherence

import (
	"fmt"
	"slices"

	"ccsvm/internal/cache"
	"ccsvm/internal/mem"
	"ccsvm/internal/noc"
)

// MsgType enumerates the protocol messages.
type MsgType uint8

const (
	// Requests from an L1 to a directory bank.

	// MsgGetS requests read permission.
	MsgGetS MsgType = iota
	// MsgGetM requests write permission.
	MsgGetM
	// MsgPutM writes back a Modified line being evicted.
	MsgPutM
	// MsgPutO writes back an Owned line being evicted.
	MsgPutO
	// MsgPutE notifies the directory that a clean Exclusive line was evicted.
	MsgPutE

	// Forwards from a directory bank to an L1.

	// MsgFwdGetS asks the owner to supply data to a reading requestor.
	MsgFwdGetS
	// MsgFwdGetM asks the owner to supply data and ownership to a writing
	// requestor.
	MsgFwdGetM
	// MsgInv asks a sharer to invalidate and acknowledge to the requestor.
	MsgInv

	// Responses.

	// MsgData carries a line with read permission (to the requestor).
	MsgData
	// MsgDataExcl carries a line with write (or exclusive-clean) permission
	// and the number of invalidation acks the requestor must collect.
	MsgDataExcl
	// MsgAckCount tells an upgrading requestor (already holding data in S)
	// how many invalidation acks to collect; it carries no data.
	MsgAckCount
	// MsgInvAck acknowledges an invalidation, sent by the sharer directly to
	// the requestor.
	MsgInvAck
	// MsgFwdDone tells the directory that the owner has handled a forward;
	// it reports the state the former owner kept so the directory can update
	// its sharer/owner bookkeeping, and carries a data copy when the line was
	// dirty so the inclusive L2 stays up to date.
	MsgFwdDone
	// MsgPutAck acknowledges an eviction writeback.
	MsgPutAck
	// MsgPutAckStale acknowledges an eviction writeback that raced with a
	// forward and no longer corresponds to ownership.
	MsgPutAckStale
)

// String names the message type.
func (t MsgType) String() string {
	names := [...]string{
		"GetS", "GetM", "PutM", "PutO", "PutE",
		"FwdGetS", "FwdGetM", "Inv",
		"Data", "DataExcl", "AckCount", "InvAck", "FwdDone", "PutAck", "PutAckStale",
	}
	if int(t) < len(names) {
		return names[t]
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Message sizes in bytes for link serialization: a small header for control
// messages, header plus a 64-byte line for data-carrying messages.
const (
	CtrlMsgBytes = 16
	DataMsgBytes = 16 + mem.LineSize
)

// Msg is the protocol-level payload carried inside a noc.Message.
type Msg struct {
	// Type is the protocol message type.
	Type MsgType
	// Addr is the cache line the message concerns.
	Addr mem.LineAddr
	// Requestor is the node that started the transaction. For forwards and
	// invalidations it tells the receiver where to send data or acks.
	Requestor noc.NodeID
	// AckCount is the number of invalidation acks the requestor must collect
	// (MsgDataExcl, MsgAckCount, MsgFwdGetM).
	AckCount int
	// OwnerKept reports, on MsgFwdDone, the stable state the previous owner
	// retained: cache.Owned, cache.Shared or cache.Invalid.
	OwnerKept cache.State
	// Dirty reports, on MsgFwdDone and Put messages, whether the line carried
	// is newer than the L2/memory copy.
	Dirty bool
	// pooled marks a message currently sitting on a free list; put uses it to
	// detect double releases.
	pooled bool
}

// carriesData reports whether the message includes a full cache line.
func (m *Msg) carriesData() bool {
	switch m.Type {
	case MsgData, MsgDataExcl, MsgPutM, MsgPutO:
		return true
	case MsgFwdDone:
		return m.Dirty
	}
	return false
}

// sizeBytes returns the network size of the message.
func (m *Msg) sizeBytes() int {
	if m.carriesData() {
		return DataMsgBytes
	}
	return CtrlMsgBytes
}

// MsgPool is the free list of protocol messages shared by every controller
// of one memory system: a machine builds one and hands it to all its L1
// controllers and directory banks. A sender takes a message from the pool
// and the receiving controller releases it back into the same pool, so the
// population is the system's high-water mark of messages in flight, and
// runs on separate machines share no mutable state. Pools per controller
// would drift apart, since messages travel from sender to receiver: seeding
// one of them with a recycled population would not stop the others
// allocating.
//
// Ownership: a *Msg handed to send belongs to the receiver from delivery on.
// The receiver releases it once the message is fully handled; messages it
// retains (a directory's pending/queued requests, an L1's deferred forwards)
// are released when that later processing completes. Code that runs after the
// handler returns (DRAM-fill continuations) must copy the fields it needs
// rather than keep the message.
//
// The zero value is an empty pool ready to use.
type MsgPool struct {
	free  []*Msg
	stats PoolStats
}

// PoolStats is a message pool's accounting: Gets counts allocations from the
// pool, Puts releases into it, and DoubleReleases releases of a message
// already sitting on the free list.
type PoolStats struct {
	Gets, Puts, DoubleReleases uint64
}

// InFlight reports allocated-minus-released. At quiesce it must be zero, or
// a handler leaked a message.
func (s PoolStats) InFlight() int64 { return int64(s.Gets) - int64(s.Puts) }

// add accumulates another pool's stats.
func (s PoolStats) add(o PoolStats) PoolStats {
	return PoolStats{s.Gets + o.Gets, s.Puts + o.Puts, s.DoubleReleases + o.DoubleReleases}
}

// SumPoolStats aggregates message-pool accounting across the controllers of
// one memory system, counting each distinct pool once. At quiesce the sum
// must satisfy InFlight() == 0 and DoubleReleases == 0; the memtest subsystem
// and the coherence tests assert both.
func SumPoolStats(l1s []*L1Controller, banks []*DirectoryBank) PoolStats {
	pools := make([]*MsgPool, 0, 1)
	for _, c := range l1s {
		if !slices.Contains(pools, c.pool) {
			pools = append(pools, c.pool)
		}
	}
	for _, b := range banks {
		if !slices.Contains(pools, b.pool) {
			pools = append(pools, b.pool)
		}
	}
	var total PoolStats
	for _, p := range pools {
		total = total.add(p.stats)
	}
	return total
}

// get returns a message with the given header fields and all others zeroed.
//
//ccsvm:pooled get
//ccsvm:hotpath
func (p *MsgPool) get(t MsgType, addr mem.LineAddr, req noc.NodeID) *Msg {
	p.stats.Gets++
	var m *Msg
	if n := len(p.free); n > 0 {
		m = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	} else {
		m = new(Msg) //ccsvm:allocok // pool miss; steady state reuses the free list
	}
	m.Type, m.Addr, m.Requestor = t, addr, req
	m.AckCount = 0
	m.OwnerKept = cache.Invalid
	m.Dirty = false
	m.pooled = false
	return m
}

// put releases a fully-handled message back to the free list. Releasing a
// message that is already pooled is recorded (and the message left alone)
// rather than corrupting the free list; the accounting checks fail loudly on
// any such release.
//
//ccsvm:pooled put
//ccsvm:hotpath
func (p *MsgPool) put(m *Msg) {
	if m.pooled {
		p.stats.DoubleReleases++
		return
	}
	m.pooled = true
	p.stats.Puts++
	p.free = append(p.free, m) //ccsvm:allocok // free list returns to its high-water mark
}

// DrainFreeList removes and returns every message parked on the pool's free
// list. It hands over the free list's own slice, copying nothing: a sweep
// worker drains a machine being torn down and seeds the next machine's pool
// with the result (see SeedFreeList), so the message population survives
// across runs instead of being reallocated. The messages stay flagged
// pooled, exactly as they sat on the free list.
//
//ccsvm:pooled get
func (p *MsgPool) DrainFreeList() []*Msg {
	ms := p.free
	p.free = nil
	return ms
}

// SeedFreeList hands previously drained messages to the pool. An empty pool
// adopts the slice itself. Seeding is not a release: the Puts accounting is
// untouched, so the InFlight()==0 quiesce invariant holds regardless of how
// many messages a pool starts with.
//
//ccsvm:pooled put
func (p *MsgPool) SeedFreeList(ms []*Msg) {
	if len(p.free) == 0 {
		p.free = ms
		return
	}
	p.free = append(p.free, ms...)
}

// send wraps the protocol message in a pooled network message and sends it;
// the network recycles its envelope after delivery.
func send(net *noc.Torus, src, dst noc.NodeID, m *Msg) {
	nm := net.NewMessage()
	nm.Src, nm.Dst, nm.SizeBytes, nm.Payload = src, dst, m.sizeBytes(), m
	net.Send(nm)
}

// String formats the message for traces.
func (m *Msg) String() string {
	return fmt.Sprintf("%s %v req=%d acks=%d", m.Type, m.Addr, m.Requestor, m.AckCount)
}

// BankMapper maps a line address to the directory/L2 bank responsible for it.
type BankMapper func(mem.LineAddr) noc.NodeID

// InterleaveBanks returns a BankMapper that interleaves consecutive lines
// across the given bank node IDs, the standard address-interleaved banking of
// a shared L2.
func InterleaveBanks(banks []noc.NodeID) BankMapper {
	if len(banks) == 0 {
		panic("coherence: no banks")
	}
	n := uint64(len(banks))
	return func(addr mem.LineAddr) noc.NodeID {
		return banks[uint64(addr)%n]
	}
}

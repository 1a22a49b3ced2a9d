package coherence

import (
	"fmt"
	"math/bits"
	"slices"

	"ccsvm/internal/cache"
	"ccsvm/internal/dram"
	"ccsvm/internal/mem"
	"ccsvm/internal/noc"
	"ccsvm/internal/sim"
)

// DirState is the directory's view of a line.
type DirState uint8

const (
	// DirInvalid: no L1 holds the line.
	DirInvalid DirState = iota
	// DirShared: one or more L1s hold the line in Shared state.
	DirShared
	// DirExclusive: exactly one L1 holds the line in Exclusive or Modified
	// state (the directory cannot distinguish the two because E upgrades to
	// M silently).
	DirExclusive
	// DirOwned: one L1 holds the line in Owned state; others may share it.
	DirOwned
)

// String names the directory state.
func (s DirState) String() string {
	switch s {
	case DirInvalid:
		return "Dir-I"
	case DirShared:
		return "Dir-S"
	case DirExclusive:
		return "Dir-EM"
	case DirOwned:
		return "Dir-O"
	default:
		return fmt.Sprintf("DirState(%d)", uint8(s))
	}
}

// dirEntry is the directory's bookkeeping for one line.
type dirEntry struct {
	state DirState
	owner noc.NodeID
	// sharers has bit i set while L1 node i is on the line's sharer list
	// (node IDs are below MaxL1s).
	sharers uint64
	// busy blocks the entry while an owner forward or a DRAM fill is in
	// flight; queued requests are serviced in order afterwards.
	busy    bool
	pending *Msg
	queue   []*Msg
}

// nodeBit is node's bit in a sharer or holder set.
func nodeBit(node noc.NodeID) uint64 { return 1 << uint(node) }

// DirTable is a directory bank's table of per-line entries. Entries are
// created on a line's first request and live for the rest of the run, so a
// recycled table (see Reset) spares the next run's bank rebuilding them.
type DirTable struct {
	entries map[mem.LineAddr]*dirEntry
	// free holds the zeroed entries Reset took off the map; entryOf reuses
	// them before allocating.
	free []*dirEntry
}

// NewDirTable returns an empty table.
func NewDirTable() *DirTable {
	return &DirTable{entries: make(map[mem.LineAddr]*dirEntry)}
}

// Reset returns the table to NewDirTable's state, keeping the map's
// capacity and every entry for reuse: each entry's state, owner, sharers,
// busy flag, pending request and queue length are zeroed.
func (t *DirTable) Reset() {
	//ccsvm:orderinvariant // every entry is zeroed, so free-list order is unobservable
	for _, e := range t.entries {
		clear(e.queue)
		*e = dirEntry{queue: e.queue[:0]}
		t.free = append(t.free, e)
	}
	clear(t.entries)
}

// entryOf returns addr's entry, creating it in DirInvalid on first use.
func (t *DirTable) entryOf(addr mem.LineAddr) *dirEntry {
	e, ok := t.entries[addr]
	if !ok {
		if n := len(t.free); n > 0 {
			e = t.free[n-1]
			t.free[n-1] = nil
			t.free = t.free[:n-1]
		} else {
			e = new(dirEntry)
		}
		t.entries[addr] = e
	}
	return e
}

// BankConfig describes one L2/directory bank.
type BankConfig struct {
	// L2 is the empty tag array of this bank's slice of the shared,
	// inclusive L2 (1 MB 16-way per bank for the Table 2 chip), built by the
	// caller as for L1Config.Cache.
	L2 *cache.Array
	// AccessLatency is the L2/directory access latency charged per request.
	AccessLatency sim.Duration
	// Protocol selects the coherence protocol tables this bank executes; nil
	// selects MOESI. It must match the L1 controllers' protocol.
	Protocol *Protocol
	// Pool is the protocol-message pool shared by every controller of the
	// memory system (see MsgPool). Required.
	Pool *MsgPool
	// Table is the bank's empty directory entry table (NewDirTable, or a
	// Reset one from an earlier run), handed in like L2. Required.
	Table *DirTable
	// Name identifies the bank in diagnostics.
	Name string
}

// DirectoryBank is one bank of the shared L2 cache with its embedded
// directory. It owns an interleaved slice of the physical address space and a
// DRAM channel for misses and writebacks.
type DirectoryBank struct {
	engine *sim.Engine
	id     noc.NodeID
	net    *noc.Torus
	cfg    BankConfig
	proto  *Protocol
	l2     *cache.Array
	memory *dram.Controller

	table *DirTable

	// pool is the memory system's shared message pool (see MsgPool for the
	// ownership rules); processFn is the post-access-latency continuation
	// bound once so the per-message Receive path schedules without
	// allocating a closure.
	pool      *MsgPool
	processFn func(any)
	// fillFree recycles the carriers that park an owed response across a
	// DRAM read (see withL2Data).
	fillFree []*l2Fill
	// sharerBuf is the reused buffer of one invalidation round's targets.
	sharerBuf []noc.NodeID

	// skipInvs is the fault-injection budget armed by
	// InjectSkipInvalidations; zero in normal operation.
	skipInvs int

	Stats BankStats
}

// BankStats are a directory bank's event counters.
type BankStats struct {
	// L2Hits and L2Misses count L2 lookups by outcome.
	L2Hits, L2Misses uint64
	// Forwards counts requests forwarded to an owner; InvalidationsSent
	// counts invalidations sent to sharers.
	Forwards, InvalidationsSent uint64
}

// NewDirectoryBank builds a bank, attaches it to the network and wires it to
// a DRAM channel.
func NewDirectoryBank(engine *sim.Engine, id noc.NodeID, net *noc.Torus, cfg BankConfig,
	memory *dram.Controller) *DirectoryBank {
	proto := cfg.Protocol
	if proto == nil {
		proto = ProtocolMOESI
	}
	if cfg.Pool == nil {
		panic(fmt.Sprintf("%s: BankConfig.Pool is nil", cfg.Name))
	}
	if cfg.Table == nil {
		panic(fmt.Sprintf("%s: BankConfig.Table is nil", cfg.Name))
	}
	b := &DirectoryBank{
		engine: engine,
		id:     id,
		net:    net,
		cfg:    cfg,
		proto:  proto,
		l2:     cfg.L2,
		memory: memory,
		table:  cfg.Table,
		pool:   cfg.Pool,
	}
	b.processFn = func(a any) { b.process(a.(*Msg)) }
	net.Attach(id, b)
	return b
}

// NodeID reports the bank's network node.
func (b *DirectoryBank) NodeID() noc.NodeID { return b.id }

// Entry exposes a line's directory state for tests.
func (b *DirectoryBank) Entry(addr mem.LineAddr) (DirState, noc.NodeID, []noc.NodeID) {
	e, ok := b.table.entries[addr]
	if !ok {
		return DirInvalid, 0, nil
	}
	return e.state, e.owner, slices.Clone(b.sharerList(e, -1))
}

// InjectSkipInvalidations arms a deliberate protocol bug for the memtest
// subsystem's self-check: each of the next n invalidation rounds triggered by
// a GetM silently drops one sharer — the directory grants write permission
// without invalidating (or counting an ack from) that sharer, leaving it with
// a stale Shared copy. The SWMR checker and the quiesce-time directory/L1
// cross-check must both catch the violation; the stress tests prove they do.
func (b *DirectoryBank) InjectSkipInvalidations(n int) { b.skipInvs = n }

// sharerList lists e's sharers other than except in ascending node order,
// the fixed order invalidations go out in, in a buffer the bank reuses: the
// list is valid until the next call.
//
//ccsvm:hotpath
func (b *DirectoryBank) sharerList(e *dirEntry, except noc.NodeID) []noc.NodeID {
	out := b.sharerBuf[:0]
	for set := e.sharers; set != 0; set &= set - 1 {
		if s := noc.NodeID(bits.TrailingZeros64(set)); s != except {
			out = append(out, s) //ccsvm:allocok // the buffer grows to the most sharers one line ever had
		}
	}
	b.sharerBuf = out
	return out
}

// maybeDropSharer applies the armed fault injection to one invalidation
// round's sharer list: it drops the highest ID.
func (b *DirectoryBank) maybeDropSharer(sharers []noc.NodeID) []noc.NodeID {
	if b.skipInvs > 0 && len(sharers) > 0 {
		b.skipInvs--
		return sharers[:len(sharers)-1]
	}
	return sharers
}

// Busy reports whether any entry is mid-transaction (tests use this to
// confirm quiescence).
func (b *DirectoryBank) Busy() bool {
	//ccsvm:orderinvariant
	for _, e := range b.table.entries {
		if e.busy || len(e.queue) > 0 {
			return true
		}
	}
	return false
}

// Receive implements noc.Receiver.
//
//ccsvm:hotpath
func (b *DirectoryBank) Receive(nm *noc.Message) {
	// Every message pays the L2/directory access latency. The protocol
	// payload outlives the network envelope (which is recycled when this
	// returns), so it rides to process as the event argument.
	b.engine.ScheduleArg(b.cfg.AccessLatency, b.processFn, nm.Payload)
}

func (b *DirectoryBank) process(m *Msg) {
	switch m.Type {
	case MsgFwdDone:
		b.handleFwdDone(m)
		b.pool.put(m)
	case MsgGetS, MsgGetM, MsgPutM, MsgPutO, MsgPutE:
		e := b.table.entryOf(m.Addr)
		if e.busy {
			e.queue = append(e.queue, m)
			return
		}
		b.dispatchRequest(e, m)
	default:
		panic(fmt.Sprintf("%s: unexpected message %v", b.cfg.Name, m))
	}
}

// dispatchRequest runs a request the bank owns and releases it afterwards
// unless handling parked it as the entry's pending transaction (waiting on an
// owner's FwdDone, which releases it).
func (b *DirectoryBank) dispatchRequest(e *dirEntry, m *Msg) {
	b.handleRequest(e, m)
	if e.pending != m {
		b.pool.put(m)
	}
}

func (b *DirectoryBank) handleRequest(e *dirEntry, m *Msg) {
	if !b.proto.HasOwned && (e.state == DirOwned || m.Type == MsgPutO) {
		panic(fmt.Sprintf("%s: %v with entry %v under %s", b.cfg.Name, m, e.state, b.proto.Name))
	}
	switch m.Type {
	case MsgGetS:
		b.handleGetS(e, m)
	case MsgGetM:
		b.handleGetM(e, m)
	case MsgPutM, MsgPutO, MsgPutE:
		b.handlePut(e, m)
	}
}

func (b *DirectoryBank) handleGetS(e *dirEntry, m *Msg) {
	// The owed responses copy the request's fields, not the request: m is
	// released when dispatchRequest returns, which can be before a DRAM fill
	// completes.
	addr, req := m.Addr, m.Requestor
	switch e.state {
	case DirInvalid:
		// No cache holds the line: grant Exclusive, as x86-style protocols do
		// for the first reader.
		b.withL2Data(e, l2Reply{kind: grantExclusive, addr: addr, req: req})
	case DirShared:
		b.withL2Data(e, l2Reply{kind: grantShared, addr: addr, req: req})
	case DirExclusive, DirOwned:
		e.busy = true
		e.pending = m
		b.Stats.Forwards++
		send(b.net, b.id, e.owner, b.pool.get(MsgFwdGetS, addr, req))
	}
}

func (b *DirectoryBank) handleGetM(e *dirEntry, m *Msg) {
	// As in handleGetS, the owed responses copy fields, not m.
	addr, req := m.Addr, m.Requestor
	switch e.state {
	case DirInvalid:
		b.withL2Data(e, l2Reply{kind: grantExclusive, addr: addr, req: req})
	case DirShared:
		others := b.maybeDropSharer(b.sharerList(e, req))
		wasSharer := e.sharers&nodeBit(req) != 0
		for _, s := range others {
			b.Stats.InvalidationsSent++
			send(b.net, b.id, s, b.pool.get(MsgInv, addr, req))
		}
		if wasSharer {
			ackc := b.pool.get(MsgAckCount, addr, req)
			ackc.AckCount = len(others)
			send(b.net, b.id, req, ackc)
			e.state = DirExclusive
			e.owner = req
			e.sharers = 0
		} else {
			b.withL2Data(e, l2Reply{kind: grantExclusive, addr: addr, req: req, acks: len(others)})
		}
	case DirExclusive:
		if e.owner == req {
			panic(fmt.Sprintf("%s: GetM from current exclusive owner %d for %v", b.cfg.Name, req, addr))
		}
		e.busy = true
		e.pending = m
		b.Stats.Forwards++
		send(b.net, b.id, e.owner, b.pool.get(MsgFwdGetM, addr, req))
	case DirOwned:
		others := b.maybeDropSharer(b.sharerList(e, req))
		for _, s := range others {
			b.Stats.InvalidationsSent++
			send(b.net, b.id, s, b.pool.get(MsgInv, addr, req))
		}
		if e.owner == req {
			ackc := b.pool.get(MsgAckCount, addr, req)
			ackc.AckCount = len(others)
			send(b.net, b.id, req, ackc)
			e.state = DirExclusive
			e.sharers = 0
			return
		}
		e.busy = true
		e.pending = m
		b.Stats.Forwards++
		fwd := b.pool.get(MsgFwdGetM, addr, req)
		fwd.AckCount = len(others)
		send(b.net, b.id, e.owner, fwd)
	}
}

func (b *DirectoryBank) handlePut(e *dirEntry, m *Msg) {
	isOwner := (e.state == DirExclusive || e.state == DirOwned) && e.owner == m.Requestor
	if !isOwner {
		send(b.net, b.id, m.Requestor, b.pool.get(MsgPutAckStale, m.Addr, m.Requestor))
		return
	}
	if m.Dirty {
		b.installL2(m.Addr, true)
	}
	switch e.state {
	case DirExclusive:
		e.state = DirInvalid
		e.owner = 0
	case DirOwned:
		e.owner = 0
		if e.sharers == 0 {
			e.state = DirInvalid
		} else {
			e.state = DirShared
		}
	}
	send(b.net, b.id, m.Requestor, b.pool.get(MsgPutAck, m.Addr, m.Requestor))
}

// handleFwdDone resolves a completed forward through the protocol's dirDone
// table: the pending request type crossed with the state the former owner
// kept decides the next directory state, the owner/sharer bookkeeping, and —
// for protocols without owner-forwarding — the data response the directory
// itself owes the requestor.
func (b *DirectoryBank) handleFwdDone(m *Msg) {
	e := b.table.entryOf(m.Addr)
	if !e.busy || e.pending == nil {
		panic(fmt.Sprintf("%s: FwdDone for %v with no pending transaction", b.cfg.Name, m.Addr))
	}
	if m.Dirty {
		b.installL2(m.Addr, true)
	}
	p := e.pending
	act, ok := b.proto.dirDone[dirDoneKey{p.Type, m.OwnerKept}]
	if !ok {
		panic(fmt.Sprintf("%s: FwdDone kept %v for pending %v under %s", b.cfg.Name, m.OwnerKept, p.Type, b.proto.Name))
	}
	addr, req := p.Addr, p.Requestor
	oldOwner := e.owner
	e.state = act.next
	switch {
	case act.ownerToRequestor:
		e.owner = req
	case act.clearOwner:
		e.owner = 0
	}
	if act.clearSharers {
		e.sharers = 0
	}
	if act.addOldOwner {
		e.sharers |= nodeBit(oldOwner)
	}
	if act.addRequestor {
		e.sharers |= nodeBit(req)
	}
	e.busy = false
	e.pending = nil
	b.pool.put(p)
	if act.respond {
		// No owner-forwarding: the line is home (installed above when dirty,
		// refetched from DRAM below if the clean copy was evicted), and the
		// directory answers the requestor itself. The forward only came from
		// a single-owner entry, so a write collects no invalidation acks.
		b.withL2Data(e, l2Reply{kind: respond, addr: addr, req: req, data: act.data})
	}
	b.drainQueue(e)
}

// drainQueue services the entry's queued requests in arrival order until
// one blocks it again. Popping shifts the queue down in place, so its
// backing array is reused.
func (b *DirectoryBank) drainQueue(e *dirEntry) {
	for !e.busy && len(e.queue) > 0 {
		next := e.queue[0]
		n := copy(e.queue, e.queue[1:])
		e.queue[n] = nil
		e.queue = e.queue[:n]
		b.dispatchRequest(e, next)
	}
}

// replyKind names the response a bank owes a requestor once the line's data
// is in its L2.
type replyKind uint8

const (
	// grantExclusive sends DataExcl carrying the number of invalidation acks
	// to collect (none for a line no cache holds), makes the requestor the
	// exclusive owner and empties the sharer list.
	grantExclusive replyKind = iota
	// grantShared sends Data and adds the requestor to the sharers.
	grantShared
	// respond sends the dirDone table's data type and changes no state (the
	// FwdDone resolution already did).
	respond
)

// l2Reply is the response a bank owes once the line's data is in its L2: a
// small value, so it rides a DRAM fill in a pooled carrier instead of a
// closure.
type l2Reply struct {
	kind replyKind
	addr mem.LineAddr
	req  noc.NodeID
	// acks is the invalidation-ack count of grantExclusive.
	acks int
	// data is the message type of respond.
	data MsgType
}

// l2Fill carries an owed response across a DRAM read. Carriers are recycled
// through DirectoryBank.fillFree; fillDone is their continuation.
type l2Fill struct {
	b *DirectoryBank
	e *dirEntry
	r l2Reply
}

// fillDone is the DRAM-read continuation of every bank's L2 fills (see
// DirectoryBank.fill); the carrier names its bank.
func fillDone(a any) {
	f := a.(*l2Fill)
	f.b.fill(f)
}

// withL2Data sends r once the bank has the line's data available in the L2:
// at once on an L2 hit, after a DRAM read (which blocks the entry and may
// evict an L2 victim) on a miss.
//
//ccsvm:hotpath
func (b *DirectoryBank) withL2Data(e *dirEntry, r l2Reply) {
	if b.l2.Touch(r.addr) != nil {
		b.Stats.L2Hits++
		b.reply(e, r)
		return
	}
	b.Stats.L2Misses++
	e.busy = true
	var f *l2Fill
	if n := len(b.fillFree); n > 0 {
		f = b.fillFree[n-1]
		b.fillFree[n-1] = nil
		b.fillFree = b.fillFree[:n-1]
	} else {
		f = &l2Fill{b: b} //ccsvm:allocok // free-list miss; grows to the most DRAM fills ever in flight
	}
	f.e, f.r = e, r
	b.memory.ReadArg(r.addr, fillDone, f)
}

// fill is the DRAM-read continuation of withL2Data: it installs the line,
// unblocks the entry, sends the owed response and services queued requests.
//
//ccsvm:hotpath
func (b *DirectoryBank) fill(f *l2Fill) {
	e, r := f.e, f.r
	f.e = nil
	b.fillFree = append(b.fillFree, f) //ccsvm:allocok // free list returns to its high-water mark
	b.installL2(r.addr, false)
	e.busy = false
	b.reply(e, r)
	b.drainQueue(e)
}

// reply sends an owed response and applies its directory-state change.
//
//ccsvm:hotpath
func (b *DirectoryBank) reply(e *dirEntry, r l2Reply) {
	switch r.kind {
	case grantExclusive:
		excl := b.pool.get(MsgDataExcl, r.addr, r.req)
		excl.AckCount = r.acks
		send(b.net, b.id, r.req, excl)
		e.state = DirExclusive
		e.owner = r.req
		e.sharers = 0
	case grantShared:
		send(b.net, b.id, r.req, b.pool.get(MsgData, r.addr, r.req))
		e.sharers |= nodeBit(r.req)
	case respond:
		send(b.net, b.id, r.req, b.pool.get(r.data, r.addr, r.req))
	}
}

// installL2 places (or refreshes) a line in the L2 data array, writing back
// the victim to DRAM if it was dirty.
func (b *DirectoryBank) installL2(addr mem.LineAddr, dirty bool) {
	if l := b.l2.Touch(addr); l != nil {
		l.Dirty = l.Dirty || dirty
		return
	}
	line, victim, evicted, ok := b.l2.Allocate(addr)
	if !ok {
		panic(fmt.Sprintf("%s: L2 allocation failed for %v", b.cfg.Name, addr))
	}
	if evicted && victim.Dirty {
		b.memory.Write(victim.Addr, nil)
	}
	line.State = cache.Shared
	line.Dirty = dirty
}

var _ noc.Receiver = (*DirectoryBank)(nil)

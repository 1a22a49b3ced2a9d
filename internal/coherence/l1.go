package coherence

import (
	"fmt"

	"ccsvm/internal/cache"
	"ccsvm/internal/mem"
	"ccsvm/internal/noc"
	"ccsvm/internal/sim"
)

// L1Config describes one private L1 data cache and its controller.
type L1Config struct {
	// Cache is the controller's empty tag array (64 KB 4-way for CPU cores,
	// 16 KB 4-way for MTTOP cores in Table 2). The caller builds it, so a
	// machine can draw it from a simarena.Arena; the controller owns it from
	// then on.
	Cache *cache.Array
	// HitLatency is the load-to-use latency of a hit (2 CPU cycles for CPU
	// cores, 1 MTTOP cycle for MTTOP cores).
	HitLatency sim.Duration
	// Protocol selects the coherence protocol tables this controller
	// executes; nil selects MOESI, the paper's baseline. Every controller in
	// a machine must run the same protocol.
	Protocol *Protocol
	// Pool is the protocol-message pool shared by every controller of the
	// memory system (see MsgPool). Required.
	Pool *MsgPool
	// Name identifies the controller in diagnostics.
	Name string
}

// MaxL1s is the number of L1 controllers one memory system supports: the
// directory's sharer sets and the SWMR checker's holder sets are one bit per
// L1 node in a uint64, so L1 node IDs run from 0 to MaxL1s-1.
const MaxL1s = 64

// pendingAccess is a core request waiting inside the controller.
type pendingAccess struct {
	req  mem.Request
	done func()
}

// mshr tracks one outstanding transaction for one line. MSHRs are recycled
// through L1Controller.mshrFree, keeping the capacity of their secondary and
// deferred lists.
type mshr struct {
	addr      mem.LineAddr
	wantWrite bool
	// fromOwned marks an upgrade issued while this cache held the line in
	// Owned state: until the directory processes the upgrade this cache is
	// still the owner and must answer forwards immediately (deferring them
	// would deadlock the blocked directory).
	fromOwned bool
	primary   pendingAccess
	secondary []pendingAccess
	// acksNeeded is -1 until the data/ack-count response announces it.
	acksNeeded   int
	acksReceived int
	haveData     bool
	deferred     []*Msg
}

// L1Controller is the coherence controller of one private L1 data cache. It
// accepts requests from its core through the mem.Port interface and executes
// its configured protocol's transition tables (MOESI by default) against the
// directory banks on the on-chip network.
type L1Controller struct {
	engine  *sim.Engine
	id      noc.NodeID
	net     *noc.Torus
	banks   BankMapper
	cfg     L1Config
	proto   *Protocol
	array   *cache.Array
	checker *Checker

	mshrs map[mem.LineAddr]*mshr
	// mshrFree recycles MSHRs (see newMSHR and recycleMSHR).
	mshrFree []*mshr
	// evictions maps each line evicted from the array whose writeback (Put)
	// has not been acknowledged yet to its eviction-buffer state; such a line
	// can still supply data to forwarded requests.
	evictions map[mem.LineAddr]cache.State
	// stalled queues requests that must wait for an eviction or a free way;
	// stalledSpare is the buffer retryStalled drained last, kept so the next
	// stall appends into existing capacity.
	stalled, stalledSpare []pendingAccess

	// pool is the memory system's shared message pool (see MsgPool for the
	// ownership rules).
	pool *MsgPool
	// paFree recycles the carriers that ride core requests through the
	// tag-latency delay, and handleFn is that continuation bound once, so
	// Access schedules without allocating (see Engine.ScheduleArg).
	paFree   []*pendingAccess
	handleFn func(any)

	Stats L1Stats
}

// L1Stats are an L1 controller's event counters.
type L1Stats struct {
	// Hits and Misses count core accesses by outcome.
	Hits, Misses uint64
	// DirtyEvictions counts evicted lines that needed a writeback.
	DirtyEvictions uint64
	// Forwards counts forwarded requests received from the directory.
	Forwards uint64
	// DataForwards counts forwards this cache answered with data sent
	// directly to the requestor. It is structurally zero under protocols
	// without owner-forwarding, which the memtest harness asserts.
	DataForwards uint64
}

// NewL1Controller builds an L1 controller and attaches it to the network at
// the given node ID.
func NewL1Controller(engine *sim.Engine, id noc.NodeID, net *noc.Torus, banks BankMapper,
	cfg L1Config, checker *Checker) *L1Controller {
	c := &L1Controller{
		mshrs:     make(map[mem.LineAddr]*mshr),
		evictions: make(map[mem.LineAddr]cache.State),
	}
	c.handleFn = func(a any) {
		pa := a.(*pendingAccess)
		p := *pa
		*pa = pendingAccess{}
		c.paFree = append(c.paFree, pa)
		c.handle(p)
	}
	c.Reset(engine, id, net, banks, cfg, checker)
	return c
}

// Reset rewires the controller into a new machine as NewL1Controller would
// build it there: no transaction, eviction, stalled request or count
// survives. It keeps only storage: the MSHR and access-carrier free lists
// (each MSHR with its coalescing and deferred lists), the stall buffers and
// the MSHR and eviction maps. The old machine may have stopped mid-run;
// what was in flight then is dropped with its engine.
func (c *L1Controller) Reset(engine *sim.Engine, id noc.NodeID, net *noc.Torus, banks BankMapper,
	cfg L1Config, checker *Checker) {
	proto := cfg.Protocol
	if proto == nil {
		proto = ProtocolMOESI
	}
	if id < 0 || id >= MaxL1s {
		panic(fmt.Sprintf("%s: L1 node id %d outside [0, %d)", cfg.Name, id, MaxL1s))
	}
	if cfg.Pool == nil {
		panic(fmt.Sprintf("%s: L1Config.Pool is nil", cfg.Name))
	}
	clear(c.mshrs)
	clear(c.evictions)
	clear(c.stalled)
	*c = L1Controller{
		engine:       engine,
		id:           id,
		net:          net,
		banks:        banks,
		cfg:          cfg,
		proto:        proto,
		array:        cfg.Cache,
		checker:      checker,
		mshrs:        c.mshrs,
		mshrFree:     c.mshrFree,
		evictions:    c.evictions,
		stalled:      c.stalled[:0],
		stalledSpare: c.stalledSpare,
		pool:         cfg.Pool,
		paFree:       c.paFree,
		handleFn:     c.handleFn,
	}
	net.Attach(id, c)
}

// NodeID reports the controller's network node.
func (c *L1Controller) NodeID() noc.NodeID { return c.id }

// Array exposes the cache array for tests.
func (c *L1Controller) Array() *cache.Array { return c.array }

// Access implements mem.Port: the core issues a request; done runs when the
// access has coherence permission and is globally performed.
func (c *L1Controller) Access(req mem.Request, done func()) {
	if err := req.Validate(); err != nil {
		panic(fmt.Sprintf("%s: %v", c.cfg.Name, err))
	}
	req.Requestor = int(c.id)
	var pa *pendingAccess
	if n := len(c.paFree); n > 0 {
		pa = c.paFree[n-1]
		c.paFree[n-1] = nil
		c.paFree = c.paFree[:n-1]
	} else {
		pa = new(pendingAccess)
	}
	pa.req, pa.done = req, done
	c.engine.ScheduleArg(c.cfg.HitLatency, c.handleFn, pa)
}

// handle processes a request after the tag-access latency has been charged.
func (c *L1Controller) handle(p pendingAccess) {
	addr := p.req.Line()

	// A line whose eviction is still in flight cannot be re-requested until
	// the directory acknowledges the writeback.
	if _, evicting := c.evictions[addr]; evicting {
		c.stalled = append(c.stalled, p)
		return
	}
	// Coalesce with an outstanding transaction for the same line.
	if m := c.mshrs[addr]; m != nil {
		m.secondary = append(m.secondary, p)
		return
	}

	line := c.array.Touch(addr)
	needWrite := p.req.Type.NeedsExclusive()
	if line != nil && line.State.Stable() {
		if !needWrite && line.State.CanRead() {
			c.Stats.Hits++
			p.done()
			return
		}
		if needWrite && line.State.CanWrite() {
			if line.State == cache.Exclusive {
				line.State = cache.Modified
				c.checker.Record(c.id, addr, cache.Modified)
			}
			c.Stats.Hits++
			p.done()
			return
		}
	}
	c.Stats.Misses++
	c.startTransaction(p, line, needWrite)
}

// startTransaction allocates a way if needed and sends GetS or GetM.
func (c *L1Controller) startTransaction(p pendingAccess, line *cache.Line, needWrite bool) {
	addr := p.req.Line()
	var initial cache.State
	if line == nil {
		var victim cache.Line
		var evicted, ok bool
		line, victim, evicted, ok = c.array.Allocate(addr)
		if !ok {
			// Every way in the set has an outstanding transaction; retry when
			// one completes.
			c.stalled = append(c.stalled, p)
			return
		}
		if evicted {
			c.evictLine(victim)
		}
		if needWrite {
			initial = cache.IMAD
		} else {
			initial = cache.ISD
		}
	} else {
		// Upgrade in place: a Shared or Owned copy needs write permission.
		// Both wait for an ack count (and possibly data) from the directory,
		// which the SM_AD state handles.
		if (line.State != cache.Shared && line.State != cache.Owned) || !needWrite {
			panic(fmt.Sprintf("%s: unexpected transaction start from %v", c.cfg.Name, line.State))
		}
		initial = cache.SMAD
	}
	fromOwned := initial == cache.SMAD && line.State == cache.Owned
	line.State = initial
	m := c.newMSHR()
	m.addr, m.wantWrite, m.fromOwned, m.primary, m.acksNeeded = addr, needWrite, fromOwned, p, -1
	c.mshrs[addr] = m
	typ := MsgGetS
	if needWrite {
		typ = MsgGetM
	}
	send(c.net, c.id, c.banks(addr), c.pool.get(typ, addr, c.id))
}

// newMSHR takes an MSHR from the free list; every field is zero except the
// retained capacity of its secondary and deferred lists.
func (c *L1Controller) newMSHR() *mshr {
	if n := len(c.mshrFree); n > 0 {
		m := c.mshrFree[n-1]
		c.mshrFree[n-1] = nil
		c.mshrFree = c.mshrFree[:n-1]
		return m
	}
	return new(mshr) // free-list miss; grows to the most transactions ever outstanding
}

// recycleMSHR returns a finished MSHR to the free list. Only complete and
// completeAndInvalidate call it, as their last step: a transaction the
// primary's done() starts on the same line must get a different MSHR.
func (c *L1Controller) recycleMSHR(m *mshr) {
	clear(m.secondary)
	clear(m.deferred)
	*m = mshr{secondary: m.secondary[:0], deferred: m.deferred[:0]}
	c.mshrFree = append(c.mshrFree, m) // free list returns to its high-water mark
}

// evictLine handles a victim chosen by the replacement policy, following the
// protocol's eviction table. A silent row (clean sharers) drops the line with
// no directory traffic — the sharer list becomes conservative, which is
// harmless because we still ack any future invalidation.
func (c *L1Controller) evictLine(victim cache.Line) {
	act, ok := c.proto.evict[victim.State]
	if !ok {
		panic(fmt.Sprintf("%s: evicting line in state %v under %s", c.cfg.Name, victim.State, c.proto.Name))
	}
	if act.dirty {
		c.Stats.DirtyEvictions++
	}
	c.checker.Record(c.id, victim.Addr, cache.Invalid)
	if act.silent {
		return
	}
	c.evictions[victim.Addr] = act.next
	put := c.pool.get(act.put, victim.Addr, c.id)
	put.Dirty = act.dirty
	send(c.net, c.id, c.banks(victim.Addr), put)
}

// Receive implements noc.Receiver. Responses, invalidations and put-acks are
// fully consumed here and released; forwards are released by handleFwd, which
// may retain them in an MSHR's deferred list first.
func (c *L1Controller) Receive(nm *noc.Message) {
	m := nm.Payload.(*Msg)
	switch m.Type {
	case MsgData, MsgDataExcl, MsgAckCount:
		c.handleResponse(m)
		c.pool.put(m)
	case MsgInvAck:
		c.handleInvAck(m)
		c.pool.put(m)
	case MsgFwdGetS, MsgFwdGetM:
		c.handleFwd(m)
	case MsgInv:
		c.handleInv(m)
		c.pool.put(m)
	case MsgPutAck, MsgPutAckStale:
		c.handlePutAck(m)
		c.pool.put(m)
	default:
		panic(fmt.Sprintf("%s: unexpected message %v", c.cfg.Name, m))
	}
}

func (c *L1Controller) handleResponse(m *Msg) {
	ms := c.mshrs[m.Addr]
	if ms == nil {
		panic(fmt.Sprintf("%s: response %v with no outstanding transaction", c.cfg.Name, m))
	}
	line := c.array.Lookup(m.Addr)
	if line == nil {
		panic(fmt.Sprintf("%s: response %v with no allocated line", c.cfg.Name, m))
	}
	switch line.State {
	case cache.ISD:
		final, ok := c.proto.fill[m.Type]
		if !ok {
			panic(fmt.Sprintf("%s: %v in IS_D", c.cfg.Name, m))
		}
		c.complete(ms, line, final)
	case cache.ISDI:
		// The line was invalidated while the fill was in flight: the data
		// satisfies the pending loads exactly once and the line is dropped.
		c.completeAndInvalidate(ms, line)
	case cache.IMAD, cache.SMAD:
		switch m.Type {
		case MsgDataExcl, MsgAckCount:
			ms.haveData = true
			ms.acksNeeded = m.AckCount
			if ms.acksReceived >= ms.acksNeeded {
				c.complete(ms, line, cache.Modified)
			} else if line.State == cache.IMAD {
				line.State = cache.IMA
			} else {
				line.State = cache.SMA
			}
		default:
			panic(fmt.Sprintf("%s: %v in %v", c.cfg.Name, m, line.State))
		}
	default:
		panic(fmt.Sprintf("%s: response %v in state %v", c.cfg.Name, m, line.State))
	}
}

func (c *L1Controller) handleInvAck(m *Msg) {
	ms := c.mshrs[m.Addr]
	if ms == nil {
		panic(fmt.Sprintf("%s: InvAck with no outstanding transaction for %v", c.cfg.Name, m.Addr))
	}
	ms.acksReceived++
	line := c.array.Lookup(m.Addr)
	if ms.haveData && ms.acksReceived >= ms.acksNeeded {
		c.complete(ms, line, cache.Modified)
	}
}

// complete finishes a transaction: the line reaches final, the waiting core
// requests run, deferred forwards are serviced, and stalled requests retry.
func (c *L1Controller) complete(ms *mshr, line *cache.Line, final cache.State) {
	line.State = final
	c.checker.Record(c.id, ms.addr, final)
	delete(c.mshrs, ms.addr)

	// Stores the granted state cannot satisfy are reissued below, after the
	// deferred forwards.
	canWrite := final.CanWrite()
	ms.primary.done()
	for _, s := range ms.secondary {
		if canWrite || !s.req.Type.NeedsExclusive() {
			s.done()
		}
	}
	// An Exclusive line written by a coalesced store upgrades silently.
	if final == cache.Exclusive {
		for _, s := range ms.secondary {
			if s.req.Type.NeedsExclusive() {
				// Handled above only when CanWrite, which E satisfies; make
				// the upgrade to M visible to the invariant checker.
				line.State = cache.Modified
				c.checker.Record(c.id, ms.addr, cache.Modified)
				break
			}
		}
	}
	for _, f := range ms.deferred {
		c.handleFwd(f)
	}
	for _, s := range ms.secondary {
		if !canWrite && s.req.Type.NeedsExclusive() {
			c.handle(s)
		}
	}
	c.retryStalled()
	c.recycleMSHR(ms)
}

// completeAndInvalidate finishes an IS_D_I transaction: loads are satisfied
// with the in-flight data, then the line is dropped.
func (c *L1Controller) completeAndInvalidate(ms *mshr, line *cache.Line) {
	delete(c.mshrs, ms.addr)
	ms.primary.done()
	// Coalesced stores are reissued below, after the deferred forwards.
	for _, s := range ms.secondary {
		if !s.req.Type.NeedsExclusive() {
			s.done()
		}
	}
	c.array.Invalidate(ms.addr)
	for _, f := range ms.deferred {
		c.handleFwd(f)
	}
	for _, s := range ms.secondary {
		if s.req.Type.NeedsExclusive() {
			c.handle(s)
		}
	}
	c.retryStalled()
	c.recycleMSHR(ms)
}

// handleFwd owns the incoming forward: every path releases it except the
// deferred append, which hands ownership to the MSHR until complete /
// completeAndInvalidate re-submit it here.
func (c *L1Controller) handleFwd(m *Msg) {
	c.Stats.Forwards++
	if ms := c.mshrs[m.Addr]; ms != nil {
		line := c.array.Lookup(m.Addr)
		// An upgrade from Owned that has not been granted yet: this cache is
		// still the owner the directory forwarded to, and the directory is
		// blocked on our answer, so respond now from the data we still hold.
		if ms.fromOwned && line != nil && line.State == cache.SMAD {
			c.fwdWhileUpgrading(m, ms, line)
			c.pool.put(m)
			return
		}
		// Otherwise the directory has already granted our transaction; the
		// forward concerns a later request and can wait for our data/acks,
		// which are already in flight and cannot be blocked by the directory.
		ms.deferred = append(ms.deferred, m)
		return
	}
	if st, ok := c.evictions[m.Addr]; ok {
		c.fwdFromEviction(m, st)
		c.pool.put(m)
		return
	}
	line := c.array.Lookup(m.Addr)
	if line == nil || !line.State.IsOwnerState() {
		st := cache.Invalid
		if line != nil {
			st = line.State
		}
		panic(fmt.Sprintf("%s: forward %v but line state is %v", c.cfg.Name, m, st))
	}
	act := c.fwdAction(line.State, m)
	c.answerFwd(m, act)
	if act.next == cache.Invalid {
		c.array.Invalidate(m.Addr)
		c.checker.Record(c.id, m.Addr, cache.Invalid)
	} else if act.next != line.State {
		line.State = act.next
		c.checker.Record(c.id, m.Addr, act.next)
	}
	c.sendFwdDone(m.Addr, act.kept, act.dirty)
	c.pool.put(m)
}

// fwdAction looks up the protocol's forward table for an owner-side state; a
// missing row is a protocol violation.
func (c *L1Controller) fwdAction(st cache.State, m *Msg) fwdAction {
	act, ok := c.proto.fwd[fwdKey{st, m.Type}]
	if !ok {
		panic(fmt.Sprintf("%s: %v in state %v under %s", c.cfg.Name, m, st, c.proto.Name))
	}
	return act
}

// answerFwd sends the data an owner forwards directly to the requestor; it is
// a no-op under protocols without owner-forwarding, whose directory answers
// the requestor itself after the FwdDone writeback.
func (c *L1Controller) answerFwd(m *Msg, act fwdAction) {
	if !act.forward {
		return
	}
	c.Stats.DataForwards++
	out := c.pool.get(act.data, m.Addr, m.Requestor)
	if act.data == MsgDataExcl {
		out.AckCount = m.AckCount
	}
	send(c.net, c.id, m.Requestor, out)
}

// fwdWhileUpgrading answers a forward received while an upgrade from Owned is
// waiting to be processed by the directory: supplying data for a read leaves
// this cache the registered owner (its GetM will be processed later, owner
// intact); a write ordered first takes the line and the upgrade falls back to
// a full IM_AD fill.
func (c *L1Controller) fwdWhileUpgrading(m *Msg, ms *mshr, line *cache.Line) {
	act := c.fwdAction(cache.SMAD, m)
	c.answerFwd(m, act)
	if act.next != cache.SMAD {
		line.State = act.next
		ms.fromOwned = false
		c.checker.Record(c.id, m.Addr, cache.Invalid)
	}
	c.sendFwdDone(m.Addr, act.kept, act.dirty)
}

// fwdFromEviction services a forward for a line that sits in the eviction
// buffer (its Put has not been acknowledged yet, so this cache is still the
// owner from the directory's point of view).
func (c *L1Controller) fwdFromEviction(m *Msg, st cache.State) {
	act := c.fwdAction(st, m)
	c.answerFwd(m, act)
	c.evictions[m.Addr] = act.next
	c.sendFwdDone(m.Addr, act.kept, act.dirty)
}

func (c *L1Controller) sendFwdDone(addr mem.LineAddr, kept cache.State, dirty bool) {
	done := c.pool.get(MsgFwdDone, addr, c.id)
	done.OwnerKept = kept
	done.Dirty = dirty
	send(c.net, c.id, c.banks(addr), done)
}

func (c *L1Controller) handleInv(m *Msg) {
	ack := func() {
		send(c.net, c.id, m.Requestor, c.pool.get(MsgInvAck, m.Addr, m.Requestor))
	}
	if ms := c.mshrs[m.Addr]; ms != nil {
		line := c.array.Lookup(m.Addr)
		act, ok := c.proto.inv[line.State]
		if !ok {
			panic(fmt.Sprintf("%s: Inv in transient state %v under %s", c.cfg.Name, line.State, c.proto.Name))
		}
		line.State = act.next
		if act.record {
			c.checker.Record(c.id, m.Addr, cache.Invalid)
		}
		ack()
		return
	}
	if _, ok := c.evictions[m.Addr]; ok {
		// Conservative: acknowledge; the eviction continues independently.
		ack()
		return
	}
	line := c.array.Lookup(m.Addr)
	if line == nil {
		// Silently evicted sharer: the directory's list was stale.
		ack()
		return
	}
	act, ok := c.proto.inv[line.State]
	if !ok {
		panic(fmt.Sprintf("%s: Inv in state %v under %s", c.cfg.Name, line.State, c.proto.Name))
	}
	if act.next == cache.Invalid {
		c.array.Invalidate(m.Addr)
	}
	if act.record {
		c.checker.Record(c.id, m.Addr, cache.Invalid)
	}
	ack()
}

func (c *L1Controller) handlePutAck(m *Msg) {
	if _, ok := c.evictions[m.Addr]; !ok {
		panic(fmt.Sprintf("%s: PutAck for %v with no eviction in flight", c.cfg.Name, m.Addr))
	}
	delete(c.evictions, m.Addr)
	c.retryStalled()
}

func (c *L1Controller) retryStalled() {
	if len(c.stalled) == 0 {
		return
	}
	// Requests that stall again append to the spare buffer while this one
	// is walked; it is detached meanwhile so a nested retry cannot alias it.
	pending := c.stalled
	c.stalled, c.stalledSpare = c.stalledSpare[:0], nil
	for _, p := range pending {
		c.handle(p)
	}
	clear(pending)
	c.stalledSpare = pending[:0]
}

// Flush invalidates the entire cache, writing back dirty lines. It is used by
// tests and by machine teardown; it must only be called when no transactions
// are outstanding.
func (c *L1Controller) Flush() {
	if len(c.mshrs) != 0 {
		panic(fmt.Sprintf("%s: flush with outstanding transactions", c.cfg.Name))
	}
	var victims []cache.Line
	c.array.ForEach(func(l *cache.Line) {
		victims = append(victims, *l)
	})
	for _, v := range victims {
		c.array.Invalidate(v.Addr)
		c.evictLine(v)
	}
}

// OutstandingTransactions reports the number of in-flight MSHRs (tests use
// this to confirm quiescence).
func (c *L1Controller) OutstandingTransactions() int { return len(c.mshrs) + len(c.evictions) }

var _ mem.Port = (*L1Controller)(nil)
var _ noc.Receiver = (*L1Controller)(nil)

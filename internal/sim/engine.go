package sim

import "fmt"

// event is a unit of scheduled work. Events are ordered by time and, for
// equal times, by the order in which they were scheduled, which makes every
// simulation fully deterministic.
//
// Events are pooled: when an event fires its object goes back on the
// engine's free list and is reused by a later At/Schedule call, so callers
// never see one.
type event struct {
	when Time
	seq  uint64
	// fn is the event's single callback, invoked as fn(arg). AtArg stores the
	// caller's bound callback and argument directly; At routes plain closures
	// through the callClosure trampoline with the closure in arg (func values
	// are pointer-shaped, so neither form boxes on the heap). One callback
	// word instead of the historical fn/afn pair keeps the event at 48 bytes —
	// under one cache line — with the ordering keys (when, seq) leading the
	// struct where the sort and heap comparisons touch them.
	fn  func(any)
	arg any
	// index is the position in the overflow heap, or one of the sentinel
	// states below. An overflow heap of 2^31 events would be hundreds of
	// gigabytes.
	index int32
}

// Sentinel index values for events that are not in the overflow heap.
const (
	// indexFiring marks an event popped from the heap but not yet released.
	indexFiring = -1
	// indexPooled marks an event sitting on the free list.
	indexPooled = -2
	// indexBucketed marks an event stored in a calendar bucket.
	indexBucketed = -3
)

// callClosure is the trampoline behind At/Schedule: the scheduled closure
// rides in the event's arg slot, so every event dispatches through one
// uniform fn(arg) call.
func callClosure(a any) { a.(func())() }

// eventLess is the engine's total order: (time, seq).
func eventLess(a, b *event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// Calendar-queue geometry: calBuckets buckets of 2^calShift picoseconds each
// form a ring covering the near future (64 buckets x 1024 ps = ~65 ns, enough
// for every per-cycle, per-hop, and DRAM-latency event of the modeled chips).
// Events beyond the window go to the binary heap instead and are popped from
// there; because simulated time only moves forward, a bucket slot never holds
// events from two different laps of the ring (see the invariant note on
// insert).
const (
	calShift      = 10
	calBuckets    = 64
	calBucketMask = calBuckets - 1
)

// calBucket holds the events of one bucket-width time slice, consumed from
// head. The slice is kept unsorted on insert and lazily sorted by (time, seq)
// the first time the bucket is drained; the backing array is reused once the
// bucket empties.
type calBucket struct {
	events []*event
	head   int
	sorted bool
}

func (b *calBucket) push(ev *event) {
	if b.head == len(b.events) {
		b.events = b.events[:0]
		b.head = 0
		b.sorted = true
	}
	if n := len(b.events); b.sorted && n > b.head && eventLess(ev, b.events[n-1]) {
		b.sorted = false
	}
	b.events = append(b.events, ev) // recycled backing array, grows to bucket high-water mark
}

// Engine is a single-threaded discrete-event simulation engine.
//
// All component models (caches, directories, network links, cores, devices)
// schedule closures on one shared Engine; the closures run in strict
// (time, insertion-order) order, so a simulation with the same inputs always
// produces bit-identical results.
//
// The queue is two-level: near-future events go into a bucketed calendar ring
// (O(1) insert, cheap pop), far-future events into a binary heap. Both
// structures drain in the same (time, seq) total order, so the split is
// invisible to component models. Event objects are free-listed (see event).
//
// Dispatch is fused: the engine caches the next-event candidate (next) so the
// common Step — pop the head of the already-sorted current bucket, run it,
// promote its successor — never rescans the calendar ring or the heap top.
// The cache is invalidated by the only operation that can change the front
// of the queue: scheduling an event earlier than the candidate.
type Engine struct {
	now Time
	seq uint64

	// next is the cached next-event candidate: nil means unknown (recompute
	// via refill), non-nil means it is the earliest live event and sits at
	// the front of its container — the head of the sorted bucket at calScan,
	// or the top of the overflow heap.
	next *event

	// overflow is a concrete binary min-heap ordered by eventLess; push/pop
	// are open-coded (heapPush/heapPopTop) so they inline without the
	// interface dispatch and any-boxing of container/heap.
	overflow []*event

	// cal is the near-future bucket ring; calCount counts the entries that
	// still sit in buckets; calScan is a monotone lower bound on the smallest
	// live bucket index, used to resume the bucket scan without rescanning
	// known-empty slots.
	cal      [calBuckets]calBucket
	calCount int
	calScan  int64

	// free is the event free list; fresh events are allocated in chunks.
	free []*event

	// pending counts events still queued, so Pending() — called from hot
	// monitoring paths — is O(1) instead of a queue scan.
	pending int

	// executed counts events that have run, for debugging and stats.
	executed uint64

	// live counts events checked out of the free list (scheduled or firing
	// but not yet released). The machines' run loops assert it returns to
	// zero at quiesce, which catches leaked or double-released events.
	live int

	// traceHash accumulates an order-sensitive hash of every executed event's
	// (time, seq) pair — a cheap fingerprint of the full event trace that the
	// determinism checks compare across same-seed runs. The mix runs
	// unconditionally (two multiplies per event, cheaper than a predicted
	// branch in the dispatch loop); traceOn only gates whether TraceHash
	// reports it.
	traceOn   bool
	traceHash uint64

	// preSchedule, when installed and armed, runs at the top of At/AtArg
	// before a sequence number is assigned (see SetScheduleHook). The armed
	// flag keeps the common schedule path at one predicted-false branch: the
	// exec layer arms it only while thread activations are pending.
	preSchedule func()
	hookArmed   bool
}

// NewEngine returns an engine positioned at time zero with an empty queue.
func NewEngine() *Engine {
	return &Engine{traceHash: fnvOffset}
}

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Pending reports how many scheduled events remain.
func (e *Engine) Pending() int { return e.pending }

// Executed reports how many events have run so far.
func (e *Engine) Executed() uint64 { return e.executed }

// LiveEvents reports how many pooled event objects are currently checked out
// (queued or firing). A drained engine must report zero; anything else is a
// leak in the event pool.
func (e *Engine) LiveEvents() int { return e.live }

// EnableTraceHash starts accumulating an order-sensitive hash of every
// executed event's (time, seq) pair. Two runs of the same simulation are
// bit-identical iff they execute the same events in the same order, so equal
// trace hashes are the determinism contract's fingerprint.
func (e *Engine) EnableTraceHash() {
	e.traceOn = true
	e.traceHash = fnvOffset
}

// TraceHash returns the accumulated event-trace hash (zero until
// EnableTraceHash is called).
func (e *Engine) TraceHash() uint64 {
	if !e.traceOn {
		return 0
	}
	return e.traceHash
}

// FNV-1a parameters, used for the trace hash (folding whole 64-bit words
// instead of bytes: the mix only needs to be order-sensitive, not standard).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvMix(h, v uint64) uint64 {
	return (h ^ v) * fnvPrime
}

// eventChunk is how many event objects one free-list refill allocates.
const eventChunk = 64

// alloc takes an event from the free list, refilling it a chunk at a time.
func (e *Engine) alloc() *event {
	e.live++
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	chunk := make([]event, eventChunk) // amortized chunk refill, 1/64 gets
	for i := range chunk {
		chunk[i].index = indexPooled
	}
	for i := 1; i < len(chunk); i++ {
		e.free = append(e.free, &chunk[i]) // free list grows with the chunk
	}
	return &chunk[0]
}

// release returns a drained event to the free list.
func (e *Engine) release(ev *event) {
	if ev.index == indexPooled {
		panic("sim: double release of a pooled event")
	}
	e.live--
	ev.fn = nil
	ev.arg = nil
	ev.index = indexPooled
	e.free = append(e.free, ev) // free list returns to its high-water mark
}

// heapPush adds ev to the overflow heap and sifts it up. Open-coded
// container/heap.Push without the interface dispatch.
func (e *Engine) heapPush(ev *event) {
	h := append(e.overflow, ev) // overflow heap grows to its high-water mark
	j := len(h) - 1
	ev.index = int32(j)
	for j > 0 {
		parent := (j - 1) / 2
		if !eventLess(h[j], h[parent]) {
			break
		}
		h[j], h[parent] = h[parent], h[j]
		h[j].index = int32(j)
		h[parent].index = int32(parent)
		j = parent
	}
	e.overflow = h
}

// heapPopTop removes the heap's minimum (h[0]) and sifts the displaced tail
// element down. Open-coded container/heap.Pop without the interface dispatch
// or any-boxing of the removed event.
func (e *Engine) heapPopTop() *event {
	h := e.overflow
	top := h[0]
	top.index = indexFiring
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	e.overflow = h
	if n > 1 {
		i := 0
		h[0].index = 0
		for {
			l := 2*i + 1
			if l >= n {
				break
			}
			m := l
			if r := l + 1; r < n && eventLess(h[r], h[l]) {
				m = r
			}
			if !eventLess(h[m], h[i]) {
				break
			}
			h[i], h[m] = h[m], h[i]
			h[i].index = int32(i)
			h[m].index = int32(m)
			i = m
		}
	} else if n == 1 {
		h[0].index = 0
	}
	return top
}

// insert places a scheduled event into the calendar window or the overflow
// heap, invalidating the cached next candidate when the new event precedes
// it. Invariant: every bucketed event's bucket index lies in
// [now>>calShift, now>>calShift + calBuckets), so a ring slot never mixes
// events from different laps — time only moves forward, and events further
// out go to the heap.
func (e *Engine) insert(ev *event) {
	b := int64(ev.when) >> calShift
	if b-(int64(e.now)>>calShift) < calBuckets {
		ev.index = indexBucketed
		e.cal[b&calBucketMask].push(ev)
		if e.calCount == 0 || b < e.calScan {
			e.calScan = b
		}
		e.calCount++
	} else {
		e.heapPush(ev)
	}
	if e.next != nil && eventLess(ev, e.next) {
		e.next = nil
	}
}

// SetScheduleHook installs fn to run at the top of every At/AtArg, before
// the new event's sequence number is assigned. The exec layer uses it to
// activate threads whose operations completed earlier in the current event
// handler: their own scheduling must receive sequence numbers before anything
// the handler schedules afterwards, which keeps the event trace (and its
// hash) identical to a design that activated them synchronously at the
// completion point. The hook must not dispatch events; it may schedule
// (reentrant At/AtArg calls skip the hook via the caller's own guard).
func (e *Engine) SetScheduleHook(fn func()) { e.preSchedule = fn }

// ArmScheduleHook turns the installed schedule hook on or off. The caller
// arms it when there is pending work for the hook (the exec layer: parked
// threads with delivered completions) and disarms it when the work is gone,
// so the hot schedule path pays a branch, not an indirect call.
func (e *Engine) ArmScheduleHook(on bool) { e.hookArmed = on }

// At schedules fn to run at absolute time t. Scheduling in the past is an
// error in a component model, so it panics loudly rather than silently
// reordering time.
func (e *Engine) At(t Time, fn func()) {
	if e.hookArmed {
		e.preSchedule()
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.alloc()
	ev.when, ev.seq, ev.fn, ev.arg = t, e.seq, callClosure, fn
	e.seq++
	e.insert(ev)
	e.pending++
}

// AtArg schedules fn(arg) to run at absolute time t. It is the
// allocation-free variant of At for hot paths: fn is typically a callback
// bound once at component construction and arg a pooled message, so
// scheduling builds no closure. Pointer-shaped args do not escape to a fresh
// allocation when stored in the event.
func (e *Engine) AtArg(t Time, fn func(any), arg any) {
	if e.hookArmed {
		e.preSchedule()
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.alloc()
	ev.when, ev.seq, ev.fn, ev.arg = t, e.seq, fn, arg
	e.seq++
	e.insert(ev)
	e.pending++
}

// Schedule schedules fn to run after delay relative to the current time.
func (e *Engine) Schedule(delay Duration, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.At(e.now.Add(delay), fn)
}

// ScheduleArg schedules fn(arg) after delay relative to the current time; it
// is the allocation-free variant of Schedule (see AtArg).
func (e *Engine) ScheduleArg(delay Duration, fn func(any), arg any) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.AtArg(e.now.Add(delay), fn, arg)
}

// sortEvents orders a bucket tail by (time, seq) with an allocation-free
// insertion sort; buckets hold at most a bucket-width of events, so they stay
// small enough that insertion sort beats the reflective sort.Slice.
func sortEvents(evs []*event) {
	for i := 1; i < len(evs); i++ {
		ev := evs[i]
		j := i - 1
		for j >= 0 && eventLess(ev, evs[j]) {
			evs[j+1] = evs[j]
			j--
		}
		evs[j+1] = ev
	}
}

// peekCal returns the earliest bucketed event, or nil when the calendar is
// empty. It leaves calScan at the returned
// event's bucket index so the fused pop can remove it without rescanning.
func (e *Engine) peekCal() *event {
	if e.calCount == 0 {
		return nil
	}
	if nowB := int64(e.now) >> calShift; e.calScan < nowB {
		e.calScan = nowB
	}
	for i := 0; i < calBuckets; i++ {
		b := e.calScan + int64(i)
		bk := &e.cal[b&calBucketMask]
		if bk.head < len(bk.events) {
			if !bk.sorted {
				sortEvents(bk.events[bk.head:])
				bk.sorted = true
			}
			e.calScan = b
			return bk.events[bk.head]
		}
	}
	panic("sim: calendar count positive but no event within the window")
}

// peekOverflow returns the earliest heap event, or nil when the heap is
// empty.
func (e *Engine) peekOverflow() *event {
	if len(e.overflow) == 0 {
		return nil
	}
	return e.overflow[0]
}

// refill recomputes the cached next candidate from the two queue levels. It
// runs only when the cache is cold: at the start of a drain, after an
// insert-before-next, and when a bucket empties
// or goes unsorted under the fused pop.
func (e *Engine) refill() *event {
	cev := e.peekCal()
	hev := e.peekOverflow()
	switch {
	case cev == nil:
		e.next = hev
	case hev == nil || eventLess(cev, hev):
		e.next = cev
	default:
		e.next = hev
	}
	return e.next
}

// pop removes the cached candidate ev from its container and eagerly promotes
// its bucket successor when that is provably the global next: the bucket is
// still sorted from head and its new head precedes the heap minimum (heap[0]
// lower-bounds every heap event). Anything scheduled by the subsequent
// callback that could displace the promoted candidate invalidates the cache
// through insert.
func (e *Engine) pop(ev *event) {
	e.next = nil
	if ev.index == indexBucketed {
		// refill/promotion left calScan at this event's bucket, with the
		// event at the bucket head.
		bk := &e.cal[e.calScan&calBucketMask]
		bk.events[bk.head] = nil
		bk.head++
		e.calCount--
		ev.index = indexFiring
		if bk.sorted && bk.head < len(bk.events) {
			if c := bk.events[bk.head]; len(e.overflow) == 0 || eventLess(c, e.overflow[0]) {
				e.next = c
			}
		}
	} else {
		e.heapPopTop()
	}
}

// Step runs the single next event. It returns false when the queue is empty.
//
// This is the fused dispatch path: one cached-candidate load (or one refill
// when cold), one pop with successor promotion, one unconditional trace mix,
// one callback.
func (e *Engine) Step() bool {
	ev := e.next
	if ev == nil {
		if ev = e.refill(); ev == nil {
			return false
		}
	}
	e.pop(ev)
	e.now = ev.when
	e.traceHash = fnvMix(fnvMix(e.traceHash, uint64(ev.when)), ev.seq)
	fn, arg := ev.fn, ev.arg
	// Recycle before dispatch so the callback's own scheduling reuses the
	// object immediately.
	e.release(ev)
	e.pending--
	e.executed++
	fn(arg)
	return true
}

// Run executes events until the queue is empty.
//
// The loop batch-drains through the cached candidate: while the current
// bucket stays sorted, each iteration is a pointer load, a pop, and the
// callback. The executed counter is hoisted out of the per-event path and
// flushed when the loop exits, so Executed() observed from inside a callback
// during Run may lag; it is exact whenever Run (or Step, which machines
// drive directly) returns.
func (e *Engine) Run() {
	fired := uint64(0)
	for {
		ev := e.next
		if ev == nil {
			if ev = e.refill(); ev == nil {
				break
			}
		}
		e.pop(ev)
		e.now = ev.when
		e.traceHash = fnvMix(fnvMix(e.traceHash, uint64(ev.when)), ev.seq)
		fn, arg := ev.fn, ev.arg
		e.release(ev)
		e.pending--
		fired++
		fn(arg)
	}
	e.executed += fired
}

// Reset returns the engine to its construction state — time zero, empty
// queue, zero counters, fresh trace fingerprint — while keeping the event
// free list and the calendar/heap backing arrays at their high-water
// capacity. Queued events are recycled onto the free list.
// It is the engine half of cross-run arena reuse: a Reset engine schedules
// its first warmup-sized burst of events without allocating, yet is
// observationally identical to a NewEngine. Reset panics if an event is
// still checked out and firing, which would mean it is being called from
// inside a callback.
func (e *Engine) Reset() {
	for i := range e.cal {
		bk := &e.cal[i]
		for j := bk.head; j < len(bk.events); j++ {
			ev := bk.events[j]
			bk.events[j] = nil
			e.release(ev)
		}
		bk.events = bk.events[:0]
		bk.head = 0
		bk.sorted = true
	}
	for i := range e.overflow {
		ev := e.overflow[i]
		e.overflow[i] = nil
		e.release(ev)
	}
	e.overflow = e.overflow[:0]
	if e.live != 0 {
		panic(fmt.Sprintf("sim: Reset with %d events still checked out", e.live))
	}
	e.now, e.seq = 0, 0
	e.next = nil
	e.calCount, e.calScan = 0, 0
	e.pending = 0
	e.executed = 0
	e.traceHash = fnvOffset
	e.preSchedule = nil
	e.hookArmed = false
}

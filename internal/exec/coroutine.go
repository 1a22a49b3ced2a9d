package exec

import "iter"

// Coroutine is a workload coroutine: an iter.Pull goroutine that runs one
// thread after another. A launch borrows one from its gate's pool, and the
// coroutine hands itself back, parked, once its thread's function has
// returned and its exit path has run; a launch calls iter.Pull only when the
// pool is empty, so a gate never holds more coroutines than its machine's
// peak of live threads. A killed thread's coroutine ends with it and never
// comes back.
//
// A parked coroutine is a live goroutine, so it outlives its thread but must
// not outlive its owner: a machine without an arena ends its pool at
// Shutdown (Gate.StopCoroutines), and one with an arena hands the pool on
// (DrainCoroutines, SeedCoroutines), whose owner ends it (Stop) once its
// runs are done. An ended coroutine keeps its record and its body, bound
// once, and a launch that draws it starts it again with iter.Pull.
type Coroutine struct {
	// t is the thread the coroutine runs, nil while it is in a pool.
	t *Thread
	// seq is the coroutine's body (Coroutine.body), bound when the record is
	// built. next runs the coroutine until it yields (its thread published
	// its next op, handed the holder role back to Drive or finished);
	// stop unwinds a parked coroutine; yield is the coroutine's side of
	// next. All three come from iter.Pull and are nil once it has ended.
	seq   iter.Seq[struct{}]
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// Live reports whether c's goroutine runs: it has not been ended.
func (c *Coroutine) Live() bool { return c.next != nil }

// Stop ends the goroutine of c, which must be in a pool, and keeps the
// record. No-op on an ended coroutine.
func (c *Coroutine) Stop() {
	if c.stop != nil {
		c.stop()
		c.next, c.stop, c.yield = nil, nil, nil
	}
}

// body is the coroutine: the lent thread's function, then the exit path
// that tells the owning core the thread is finished (it observes NextDone
// and runs its exit processing, as core code through consume), then the
// hand-back to the gate's pool. Yielding there hands control back to
// whoever activated the thread: Drive, which carries on with the next
// pending thread or event, or the nested activator. The coroutine resumes
// when a launch lends it the next thread, and returns, ending its
// goroutine, when its thread is killed or it is stopped in the pool.
func (c *Coroutine) body(yield func(struct{}) bool) {
	c.yield = yield
	for {
		t := c.t
		if killed := t.run(); killed {
			return
		}
		t.finished = true
		t.releaseBatch()
		if t.resume != nil {
			t.consume()
		}
		g := t.gate
		c.t, t.co = nil, nil
		g.coroutines = append(g.coroutines, c) // grows to the most threads live at once
		if !yield(struct{}{}) {
			return
		}
	}
}

// lend gives t a coroutine: the one the pool took back last, started again
// if it was ended, or a new one when the pool is empty.
func (g *Gate) lend(t *Thread) {
	var c *Coroutine
	if n := len(g.coroutines); n > 0 {
		c = g.coroutines[n-1]
		g.coroutines[n-1] = nil
		g.coroutines = g.coroutines[:n-1]
	} else {
		c = &Coroutine{}
		c.seq = c.body
	}
	if c.next == nil {
		c.next, c.stop = iter.Pull(c.seq)
	}
	c.t, t.co = t, c
}

// SeedCoroutines hands the gate a coroutine pool drained from an earlier
// machine's gate (see DrainCoroutines), for its launches to draw before
// they call iter.Pull.
func (g *Gate) SeedCoroutines(cs []*Coroutine) {
	if len(g.coroutines) == 0 {
		g.coroutines = cs
		return
	}
	g.coroutines = append(g.coroutines, cs...)
}

// DrainCoroutines removes and returns the gate's coroutine pool. The live
// ones stay parked goroutines: the caller owns them, and must end them (see
// Coroutine.Stop) or seed a gate with them.
func (g *Gate) DrainCoroutines() []*Coroutine {
	cs := g.coroutines
	g.coroutines = nil
	return cs
}

// StopCoroutines ends the goroutine of every coroutine in the gate's pool;
// the records stay for later launches. Threads still parked keep theirs
// (see KillAll).
func (g *Gate) StopCoroutines() {
	for _, c := range g.coroutines {
		c.Stop()
	}
}

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
// A parked coroutine is a live goroutine. It outlives its thread, and its
// machine too when an arena carries the pool on to the next machine
// (DrainCoroutines, SeedCoroutines), but not the pool's owner. A machine
// without an arena ends its pool at Shutdown (Gate.StopCoroutines). An
// arena's owner ends the arena's pool once it is done with the arena; for a
// ccsvm.Runner that is when a GC cleanup finds the Runner dropped, so a
// coroutine outlives the Run call that started it but not its Runner. An
// ended coroutine leaves its pool and is never lent again.
type Coroutine struct {
	// t is the thread the coroutine runs, nil while it is in a pool.
	t *Thread
	// next runs the coroutine until it yields (its thread published its next
	// op, handed the holder role back to Drive or finished); stop unwinds a
	// parked coroutine; yield is the coroutine's side of next. next and stop
	// come from iter.Pull.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// Stop ends the goroutine of c, which must be parked with no thread: in a
// pool, or drained from one. No-op on an ended coroutine.
func (c *Coroutine) Stop() { c.stop() }

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

// lend gives t a coroutine: the one the pool took back last, or a new one
// when the pool is empty.
func (g *Gate) lend(t *Thread) {
	var c *Coroutine
	if n := len(g.coroutines); n > 0 {
		c = g.coroutines[n-1]
		g.coroutines[n-1] = nil
		g.coroutines = g.coroutines[:n-1]
	} else {
		c = &Coroutine{}
		c.next, c.stop = iter.Pull(c.body)
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

// DrainCoroutines removes and returns the gate's coroutine pool. They stay
// parked goroutines: the caller owns them, and must end them (see
// Coroutine.Stop) or seed a gate with them.
func (g *Gate) DrainCoroutines() []*Coroutine {
	cs := g.coroutines
	g.coroutines = nil
	return cs
}

// StopCoroutines ends the goroutine of every coroutine in the gate's pool
// and empties the pool, so a later launch starts a new one. Threads still
// parked keep theirs (see KillAll).
func (g *Gate) StopCoroutines() {
	for _, c := range g.coroutines {
		c.Stop()
	}
	g.coroutines = nil
}

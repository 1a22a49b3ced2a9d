// Package allocclean stays on the right side of the allocfree contract:
// pointer-shaped values cross interface boundaries, amortized growth is
// annotated //ccsvm:allocok, and crash paths may allocate freely.
package allocclean

// Item is the pooled per-event payload.
type Item struct {
	Seq int
}

// Queue is a reusable ring with a bound handler, the hot-path idiom the
// engine uses: the callback is bound once, per-event state rides in the
// pointer argument.
type Queue struct {
	buf     []*Item
	scratch []byte
	handler func(any)
}

// Push runs on the hot path without steady-state allocation.
//
//ccsvm:hotpath
func Push(q *Queue, v *Item) {
	q.buf = append(q.buf, v) //ccsvm:allocok // grows to a high-water mark, then reuses
	q.handler(v)             // *Item is pointer-shaped: no boxing
}

// Pop reuses the backing array and hands the item to a bound closure.
//
//ccsvm:hotpath
func Pop(q *Queue) *Item {
	if len(q.buf) == 0 {
		return nil
	}
	v := q.buf[len(q.buf)-1]
	q.buf = q.buf[:len(q.buf)-1]
	return v
}

// Engine stands in for the simulation engine's scheduling API.
type Engine struct{}

// ScheduleArg schedules fn(arg) after a delay.
func (e *Engine) ScheduleArg(delay int64, fn func(any), arg any) {}

// Kick schedules the queue's prebound handler with the item as its
// argument, so no closure is built per event.
//
//ccsvm:hotpath
func Kick(e *Engine, q *Queue, v *Item) {
	e.ScheduleArg(1, q.handler, v)
}

// Reset is hot but its refill is a reviewed amortized allocation, annotated
// on the previous line.
//
//ccsvm:hotpath
func Reset(q *Queue, n int) {
	if cap(q.scratch) < n {
		//ccsvm:allocok // one-time growth to the largest request seen
		q.scratch = make([]byte, n)
	}
	q.scratch = q.scratch[:n]
}

// Check panics on a corrupt queue; the crash path may allocate.
//
//ccsvm:hotpath
func Check(q *Queue, name string) {
	if q.buf == nil {
		panic("allocclean: uninitialized queue " + name)
	}
	f := func(x int) int { return x + 1 } // captures nothing: a static value
	_ = f(1)
}

// Constants fold at compile time; no allocation.
//
//ccsvm:hotpath
func Greeting() string {
	const hello = "hello, " + "world"
	return hello
}

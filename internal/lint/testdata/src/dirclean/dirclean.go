// Package dirclean uses every directive in its documented position; the
// hygiene analyzer must stay silent.
//
//ccsvm:deterministic
package dirclean

// Buf is a pooled object.
type Buf struct {
	n int
}

// Pool recycles Bufs.
type Pool struct {
	free []*Buf
}

// Get hands out a pooled Buf.
//
//ccsvm:pooled get
func (p *Pool) Get() *Buf {
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free = p.free[:n-1]
		return b
	}
	return &Buf{}
}

// Put returns a Buf to the pool.
//
//ccsvm:pooled put
func (p *Pool) Put(b *Buf) {
	p.free = append(p.free, b)
}

// Source is an allocator interface with annotated methods.
type Source interface {
	// Acquire hands out a pooled Buf.
	//
	//ccsvm:pooled get
	Acquire() *Buf
}

// Drain is on the hot path and iterates a map whose effects commute.
//
//ccsvm:hotpath
func Drain(m map[int]int) int {
	total := 0
	//ccsvm:orderinvariant
	for _, v := range m {
		total += v
	}
	return total
}

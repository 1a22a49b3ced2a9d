package vm

import (
	"math/rand"
	"testing"

	"ccsvm/internal/mem"
)

// refTLB is the reference model for TestTLBMatchesReferenceModel: a
// map-based, fully associative, LRU-replaced translation cache, written for
// obviousness rather than speed.
type refTLB struct {
	capacity     int
	entries      map[mem.PageNumber]*tlbEntry
	tick         uint64
	hits, misses uint64
}

func (r *refTLB) lookup(page mem.PageNumber) (mem.FrameNumber, bool, bool) {
	e, ok := r.entries[page]
	if !ok {
		r.misses++
		return 0, false, false
	}
	r.tick++
	e.lru = r.tick
	r.hits++
	return e.frame, e.writable, true
}

func (r *refTLB) insert(page mem.PageNumber, frame mem.FrameNumber, writable bool) {
	if _, ok := r.entries[page]; !ok && len(r.entries) >= r.capacity {
		var victim *tlbEntry
		for _, e := range r.entries {
			if victim == nil || e.lru < victim.lru {
				victim = e
			}
		}
		delete(r.entries, victim.page)
	}
	r.tick++
	r.entries[page] = &tlbEntry{page: page, frame: frame, writable: writable, lru: r.tick}
}

// TestTLBMatchesReferenceModel drives the TLB and the reference model with
// the same random Insert, Lookup, InvalidatePage and Flush calls and checks
// after every step that both report the same hits, misses, frames, writable
// bits and occupancy.
func TestTLBMatchesReferenceModel(t *testing.T) {
	for _, capacity := range []int{1, 2, 64} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		tlb := NewTLB(TLBConfig{Entries: capacity})
		ref := &refTLB{capacity: capacity, entries: map[mem.PageNumber]*tlbEntry{}}
		// Twice the capacity plus a few pages keeps hits, misses and
		// evictions all common.
		pages := 2*capacity + 3
		for step := 0; step < 20000; step++ {
			page := mem.PageNumber(rng.Intn(pages))
			va := mem.VAddr(page)*mem.PageSize + mem.VAddr(rng.Intn(mem.PageSize))
			switch op := rng.Intn(100); {
			case op < 55:
				f, w, ok := tlb.Lookup(va)
				rf, rw, rok := ref.lookup(page)
				if f != rf || w != rw || ok != rok {
					t.Fatalf("cap %d step %d: Lookup(page %d) = (%d, %v, %v), model (%d, %v, %v)",
						capacity, step, page, f, w, ok, rf, rw, rok)
				}
			case op < 90:
				frame, writable := mem.FrameNumber(rng.Intn(1<<20)), rng.Intn(2) == 0
				tlb.Insert(va, frame, writable)
				ref.insert(page, frame, writable)
			case op < 98:
				tlb.InvalidatePage(va)
				delete(ref.entries, page)
			default:
				tlb.Flush()
				clear(ref.entries)
			}
			if tlb.Hits() != ref.hits || tlb.Misses() != ref.misses || tlb.Occupancy() != len(ref.entries) {
				t.Fatalf("cap %d step %d: hits %d misses %d occupancy %d, model %d %d %d",
					capacity, step, tlb.Hits(), tlb.Misses(), tlb.Occupancy(), ref.hits, ref.misses, len(ref.entries))
			}
		}
	}
}

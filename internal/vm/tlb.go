package vm

import "ccsvm/internal/mem"

// TLBConfig describes a translation lookaside buffer.
type TLBConfig struct {
	// Entries is the capacity (64, fully associative, in Table 2).
	Entries int
}

// tlbEntry caches one translation.
type tlbEntry struct {
	page     mem.PageNumber
	frame    mem.FrameNumber
	writable bool
	lru      uint64
}

// TLB is a fully associative, LRU-replaced translation cache. It is indexed
// by virtual page only; a context switch or shootdown flushes it, which is
// the conservative policy the paper adopts for MTTOP TLB coherence.
type TLB struct {
	cfg TLBConfig
	// entries grows up to cfg.Entries as translations arrive; a run pays
	// only for the translations it caches. Lookups scan it in order.
	entries []tlbEntry
	// last points at the entry of the most recent hit or insert:
	// translations are heavily page-local, so most lookups resolve here
	// without a scan. Wherever entries can move (append, the swap-delete of
	// InvalidatePage, Flush) it is reset, so it never points at a stale copy.
	last *tlbEntry
	tick uint64

	hits, misses uint64
}

// NewTLB builds a TLB.
func NewTLB(cfg TLBConfig) *TLB {
	t := &TLB{}
	t.reset(cfg)
	return t
}

// reset empties the TLB and zeroes its counts as NewTLB(cfg) would build
// it, keeping its entry storage.
func (t *TLB) reset(cfg TLBConfig) {
	if cfg.Entries <= 0 {
		panic("vm: TLB needs at least one entry")
	}
	*t = TLB{cfg: cfg, entries: t.entries[:0]}
}

// find returns the entry caching page, or nil.
func (t *TLB) find(page mem.PageNumber) *tlbEntry {
	for i := range t.entries {
		if t.entries[i].page == page {
			return &t.entries[i]
		}
	}
	return nil
}

// Lookup returns the cached translation for the page containing va.
func (t *TLB) Lookup(va mem.VAddr) (mem.FrameNumber, bool, bool) {
	page := mem.PageOf(va)
	e := t.last
	if e == nil || e.page != page {
		if e = t.find(page); e == nil {
			t.misses++
			return 0, false, false
		}
		t.last = e
	}
	t.tick++
	e.lru = t.tick
	t.hits++
	return e.frame, e.writable, true
}

// Insert caches a translation, replacing the LRU entry (the unique minimum
// tick) if the TLB is full.
func (t *TLB) Insert(va mem.VAddr, frame mem.FrameNumber, writable bool) {
	page := mem.PageOf(va)
	e := t.find(page)
	if e == nil && len(t.entries) < t.cfg.Entries {
		t.entries = append(t.entries, tlbEntry{}) // grows to the TLB's capacity, then stays
		e = &t.entries[len(t.entries)-1]
	} else if e == nil {
		e = &t.entries[0]
		for i := range t.entries {
			if t.entries[i].lru < e.lru {
				e = &t.entries[i]
			}
		}
	}
	t.tick++
	*e = tlbEntry{page: page, frame: frame, writable: writable, lru: t.tick}
	t.last = e
}

// InvalidatePage removes one translation (selective shootdown).
func (t *TLB) InvalidatePage(va mem.VAddr) {
	e := t.find(mem.PageOf(va))
	if e == nil {
		return
	}
	n := len(t.entries) - 1
	*e = t.entries[n]
	t.entries = t.entries[:n]
	t.last = nil
}

// Flush empties the TLB (the conservative shootdown used for MTTOP cores),
// keeping its storage.
func (t *TLB) Flush() {
	t.entries = t.entries[:0]
	t.last = nil
}

// Occupancy reports how many translations are cached.
func (t *TLB) Occupancy() int { return len(t.entries) }

// Hits reports the number of TLB hits.
func (t *TLB) Hits() uint64 { return t.hits }

// Misses reports the number of TLB misses.
func (t *TLB) Misses() uint64 { return t.misses }

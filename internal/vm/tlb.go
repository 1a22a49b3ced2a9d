package vm

import (
	"ccsvm/internal/mem"
	"ccsvm/internal/stats"
)

// TLBConfig describes a translation lookaside buffer.
type TLBConfig struct {
	// Entries is the capacity (64, fully associative, in Table 2).
	Entries int
	// Name prefixes the TLB's statistics.
	Name string
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
//
//ccsvm:state
type TLB struct {
	cfg     TLBConfig
	entries map[mem.PageNumber]*tlbEntry
	// last is the entry of the most recent hit or insert: translations are
	// heavily page-local, so most lookups resolve here without hashing.
	last *tlbEntry
	tick uint64

	hits    *stats.Counter
	misses  *stats.Counter
	flushes *stats.Counter
}

// NewTLB builds a TLB.
func NewTLB(cfg TLBConfig, reg *stats.Registry) *TLB {
	if cfg.Entries <= 0 {
		panic("vm: TLB needs at least one entry")
	}
	return &TLB{
		cfg:     cfg,
		entries: make(map[mem.PageNumber]*tlbEntry, cfg.Entries),
		hits:    reg.Counter(cfg.Name + ".hits"),
		misses:  reg.Counter(cfg.Name + ".misses"),
		flushes: reg.Counter(cfg.Name + ".flushes"),
	}
}

// Lookup returns the cached translation for the page containing va.
//
//ccsvm:hotpath
func (t *TLB) Lookup(va mem.VAddr) (mem.FrameNumber, bool, bool) {
	page := mem.PageOf(va)
	if e := t.last; e != nil && e.page == page {
		t.tick++
		e.lru = t.tick
		t.hits.Inc()
		return e.frame, e.writable, true
	}
	e, ok := t.entries[page]
	if !ok {
		t.misses.Inc()
		return 0, false, false
	}
	t.last = e
	t.tick++
	e.lru = t.tick
	t.hits.Inc()
	return e.frame, e.writable, true
}

// Insert caches a translation, evicting the LRU entry if the TLB is full; the
// new translation reuses the victim's entry.
//
//ccsvm:hotpath
func (t *TLB) Insert(va mem.VAddr, frame mem.FrameNumber, writable bool) {
	page := mem.PageOf(va)
	if e, ok := t.entries[page]; ok {
		t.tick++
		e.frame, e.writable, e.lru = frame, writable, t.tick
		t.last = e
		return
	}
	var e *tlbEntry
	if len(t.entries) >= t.cfg.Entries {
		var victim *tlbEntry
		var oldest uint64 = ^uint64(0)
		for _, v := range t.entries {
			if v.lru < oldest {
				oldest = v.lru
				victim = v
			}
		}
		delete(t.entries, victim.page)
		e = victim
	} else {
		e = new(tlbEntry) //ccsvm:allocok // grows to the TLB's capacity; a full TLB reuses its victim's entry
	}
	t.tick++
	*e = tlbEntry{page: page, frame: frame, writable: writable, lru: t.tick}
	t.entries[page] = e
	t.last = e
}

// InvalidatePage removes one translation (selective shootdown).
func (t *TLB) InvalidatePage(va mem.VAddr) {
	page := mem.PageOf(va)
	delete(t.entries, page)
	if t.last != nil && t.last.page == page {
		t.last = nil
	}
}

// Flush empties the TLB (the conservative shootdown used for MTTOP cores).
func (t *TLB) Flush() {
	t.flushes.Inc()
	// Clearing in place keeps the map's buckets: MTTOP TLBs are flushed on
	// every shootdown. Eviction picks the unique minimum lru, so the map's
	// iteration order cannot affect results.
	clear(t.entries)
	t.last = nil
}

// Occupancy reports how many translations are cached.
func (t *TLB) Occupancy() int { return len(t.entries) }

// Hits reports the number of TLB hits.
func (t *TLB) Hits() uint64 { return t.hits.Value() }

// Misses reports the number of TLB misses.
func (t *TLB) Misses() uint64 { return t.misses.Value() }

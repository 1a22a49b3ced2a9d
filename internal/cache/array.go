package cache

import (
	"fmt"

	"ccsvm/internal/mem"
)

// Line is one cache line's bookkeeping in a set-associative array. The field
// order packs it into 24 bytes.
type Line struct {
	// Addr is the line address of the block held in this way.
	Addr mem.LineAddr
	// lru is the logical timestamp of the last touch.
	lru uint64
	// Valid marks an allocated way (any state other than an empty slot).
	Valid bool
	// State is the coherence state (used by the L1s and, with a narrower
	// set of states, the L2 data array where Dirty matters).
	State State
	// Dirty marks an L2 block newer than DRAM.
	Dirty bool
}

// Config describes a set-associative array.
type Config struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// Assoc is the number of ways per set.
	Assoc int
	// Name is used in error messages.
	Name string
}

// NumSets returns the number of sets implied by the configuration.
func (c Config) NumSets() int {
	lines := c.SizeBytes / mem.LineSize
	if c.Assoc <= 0 || lines <= 0 || lines%c.Assoc != 0 {
		panic(fmt.Sprintf("cache: invalid geometry for %s: %d bytes, %d-way", c.Name, c.SizeBytes, c.Assoc))
	}
	return lines / c.Assoc
}

// Array is a set-associative structure with LRU replacement. It stores no
// data, only tags and state; functional data lives in mem.Physical.
//
// Set i is lines[i*Assoc:(i+1)*Assoc] of one flat, pointer-free slice, so an
// array parked across runs (see internal/simarena) costs the garbage
// collector nothing to scan. The array also remembers which sets Allocate has
// written since it was built or Reset — Allocate is the only call that makes
// a set non-zero — so Reset costs O(sets used), not O(capacity).
//
//ccsvm:state
type Array struct {
	cfg     Config
	lines   []Line
	numSets int
	tick    uint64

	// used is a bitmap over sets written since the last Reset; usedSets
	// lists the same sets in first-write order.
	used     []uint64
	usedSets []int
}

// NewArray builds an empty array from the configuration.
func NewArray(cfg Config) *Array {
	numSets := cfg.NumSets()
	return &Array{
		cfg:     cfg,
		lines:   make([]Line, numSets*cfg.Assoc),
		numSets: numSets,
		used:    make([]uint64, (numSets+63)/64),
	}
}

// Reset empties the array and renames it, leaving it indistinguishable from
// NewArray of the same geometry under the new name. Only the sets written
// since the last reset are cleared.
func (a *Array) Reset(name string) {
	for _, s := range a.usedSets {
		clear(a.set(s))
		a.used[s/64] = 0
	}
	a.usedSets = a.usedSets[:0]
	a.tick = 0
	a.cfg.Name = name
}

// Config returns the array configuration.
func (a *Array) Config() Config { return a.cfg }

// SetIndex returns the set an address maps to.
func (a *Array) SetIndex(addr mem.LineAddr) int {
	return int(uint64(addr) % uint64(a.numSets))
}

func (a *Array) set(i int) []Line {
	return a.lines[i*a.cfg.Assoc : (i+1)*a.cfg.Assoc]
}

// Lookup returns the line holding addr, or nil if it is not present.
// Lookup does not update LRU state; use Touch for accesses.
func (a *Array) Lookup(addr mem.LineAddr) *Line {
	set := a.set(a.SetIndex(addr))
	for i := range set {
		if set[i].Valid && set[i].Addr == addr {
			return &set[i]
		}
	}
	return nil
}

// Touch marks the line as most recently used and returns it, or nil if the
// address is not present.
func (a *Array) Touch(addr mem.LineAddr) *Line {
	l := a.Lookup(addr)
	if l != nil {
		a.tick++
		l.lru = a.tick
	}
	return l
}

// Allocate installs addr into its set and returns the line, plus the victim
// line's previous contents if an occupied way had to be evicted. Only ways in
// a stable state are considered victims; if every way is transient (an
// outstanding transaction holds it), Allocate returns ok=false and the caller
// must retry later.
//
// The returned line is in state Invalid / not dirty; the caller sets its
// state.
func (a *Array) Allocate(addr mem.LineAddr) (line *Line, victim Line, evicted bool, ok bool) {
	if l := a.Lookup(addr); l != nil {
		panic(fmt.Sprintf("cache: %s allocate of already-present %v", a.cfg.Name, addr))
	}
	s := a.SetIndex(addr)
	set := a.set(s)
	// Prefer an empty way.
	var candidate *Line
	for i := range set {
		if !set[i].Valid {
			candidate = &set[i]
			break
		}
	}
	if candidate == nil {
		// Pick the least recently used stable way.
		for i := range set {
			if !set[i].State.Stable() {
				continue
			}
			if candidate == nil || set[i].lru < candidate.lru {
				candidate = &set[i]
			}
		}
		if candidate == nil {
			return nil, Line{}, false, false
		}
		victim = *candidate
		evicted = true
	}
	if bit := uint64(1) << (s % 64); a.used[s/64]&bit == 0 {
		a.used[s/64] |= bit
		a.usedSets = append(a.usedSets, s)
	}
	a.tick++
	*candidate = Line{Valid: true, Addr: addr, State: Invalid, lru: a.tick}
	return candidate, victim, evicted, true
}

// Invalidate removes addr from the array if present.
func (a *Array) Invalidate(addr mem.LineAddr) {
	if l := a.Lookup(addr); l != nil {
		*l = Line{}
	}
}

// Occupancy reports how many valid lines the array currently holds.
func (a *Array) Occupancy() int {
	n := 0
	for i := range a.lines {
		if a.lines[i].Valid {
			n++
		}
	}
	return n
}

// ForEach calls fn on every valid line in set-index order. Mutating the line
// through the pointer is allowed.
func (a *Array) ForEach(fn func(l *Line)) {
	for i := range a.lines {
		if a.lines[i].Valid {
			fn(&a.lines[i])
		}
	}
}

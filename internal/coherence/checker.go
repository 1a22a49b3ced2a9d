package coherence

import (
	"fmt"
	"math/bits"

	"ccsvm/internal/cache"
	"ccsvm/internal/mem"
	"ccsvm/internal/noc"
)

// Checker verifies the single-writer/multiple-reader (SWMR) invariant on
// every stable-state transition reported by the L1 controllers. It is cheap
// enough to stay enabled in normal runs and is the backbone of the protocol's
// property-based stress tests.
type Checker struct {
	// lines holds the record of every line some cache holds.
	lines map[mem.LineAddr]*holderRecord
	// free recycles the records of lines every holder dropped.
	free []*holderRecord
	// Violations collects human-readable descriptions of invariant
	// violations; tests assert this stays empty.
	Violations []string
	// enabled gates checking; a disabled checker records nothing.
	enabled bool
}

// holderRecord is the stable state each cache holds one line in: bit i of
// holders is set while L1 node i holds the line, in states[i].
type holderRecord struct {
	holders uint64
	states  [MaxL1s]cache.State
}

// NewChecker returns an enabled checker.
func NewChecker() *Checker {
	return &Checker{lines: make(map[mem.LineAddr]*holderRecord), enabled: true}
}

// SetEnabled turns checking on or off.
func (c *Checker) SetEnabled(on bool) { c.enabled = on }

// Reset returns the checker to NewChecker's state — enabled, no line held,
// no violation — keeping its map's capacity and its records for the next
// run. Record takes a free record to hold nobody, so every held record's
// holder mask is cleared before it joins the free list.
func (c *Checker) Reset() {
	//ccsvm:orderinvariant // every record is zeroed, so free-list order is unobservable
	for _, r := range c.lines {
		r.holders = 0
		c.free = append(c.free, r)
	}
	clear(c.lines)
	c.Violations = nil
	c.enabled = true
}

// Record notes that the cache at node now holds addr in the given stable
// state (Invalid removes the entry) and re-checks the invariant for that
// line. Node IDs must be below MaxL1s.
func (c *Checker) Record(node noc.NodeID, addr mem.LineAddr, st cache.State) {
	if c == nil || !c.enabled {
		return
	}
	if !st.Stable() {
		return
	}
	if node < 0 || node >= MaxL1s {
		panic(fmt.Sprintf("coherence: checker node %d outside [0, %d)", node, MaxL1s))
	}
	r := c.lines[addr]
	if r == nil {
		if st == cache.Invalid {
			return
		}
		if n := len(c.free); n > 0 {
			r = c.free[n-1]
			c.free[n-1] = nil
			c.free = c.free[:n-1]
		} else {
			r = new(holderRecord) // free-list miss; grows to the most lines ever held at once
		}
		c.lines[addr] = r
	}
	if st == cache.Invalid {
		r.holders &^= nodeBit(node)
		if r.holders == 0 {
			// No holder left, so nothing to check; the stale states are
			// masked off until the record is reused.
			delete(c.lines, addr)
			c.free = append(c.free, r) // free list returns to its high-water mark
			return
		}
	} else {
		r.holders |= nodeBit(node)
		r.states[node] = st
	}
	c.check(addr, r)
}

// check counts the line's writers, readers and owner-state holders and
// reports any violation.
func (c *Checker) check(addr mem.LineAddr, r *holderRecord) {
	writers := 0
	readers := 0
	owners := 0
	for set := r.holders; set != 0; set &= set - 1 {
		st := r.states[bits.TrailingZeros64(set)]
		if st.CanWrite() {
			writers++
		}
		if st.CanRead() {
			readers++
		}
		if st == cache.Owned || st == cache.Modified || st == cache.Exclusive {
			owners++
		}
	}
	if writers > 1 || writers == 1 && readers > 1 || owners > 1 {
		c.report(addr, r, writers, readers, owners)
	}
}

// report appends the violation messages for one line; the holder map prints
// in ascending node order.
func (c *Checker) report(addr mem.LineAddr, r *holderRecord, writers, readers, owners int) {
	holders := r.holderMap()
	if writers > 1 {
		c.Violations = append(c.Violations,
			fmt.Sprintf("SWMR: %v has %d writers: %v", addr, writers, holders))
	}
	if writers == 1 && readers > 1 {
		c.Violations = append(c.Violations,
			fmt.Sprintf("SWMR: %v has a writer and %d readers: %v", addr, readers, holders))
	}
	if owners > 1 {
		c.Violations = append(c.Violations,
			fmt.Sprintf("ownership: %v has %d owner-state holders: %v", addr, owners, holders))
	}
}

// holderMap returns the record's holders as a fresh map.
func (r *holderRecord) holderMap() map[noc.NodeID]cache.State {
	out := make(map[noc.NodeID]cache.State, bits.OnesCount64(r.holders))
	for set := r.holders; set != 0; set &= set - 1 {
		n := bits.TrailingZeros64(set)
		out[noc.NodeID(n)] = r.states[n]
	}
	return out
}

// Holders returns a copy of the stable holders of a line, for tests.
func (c *Checker) Holders(addr mem.LineAddr) map[noc.NodeID]cache.State {
	if r := c.lines[addr]; r != nil {
		return r.holderMap()
	}
	return make(map[noc.NodeID]cache.State)
}

// Ok reports whether no violation has been observed.
func (c *Checker) Ok() bool { return len(c.Violations) == 0 }

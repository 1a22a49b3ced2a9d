// Package apu models the comparison system of the paper's evaluation: a
// loosely-coupled heterogeneous chip in the style of AMD's Llano Fusion APU
// (Table 2, right column). Its CPU cores have private L1+L2 hierarchies and
// communicate with a VLIW GPU only through pinned host memory in DRAM; there
// is no shared virtual address space and no hardware coherence between CPU
// caches and the GPU. The OpenCL-style runtime in package opencl drives it.
//
// The model substitutes for the real A8-3850 hardware, whose measurements the
// paper reports: it reproduces the structural costs those measurements expose
// — off-chip staging of all CPU↔GPU communication, expensive kernel launches
// and synchronization, large driver/JIT constants — and the APU's structural
// advantages (higher CPU IPC, wider VLIW GPU, coalesced GPU memory accesses).
package apu

import (
	"math/bits"

	"ccsvm/internal/cache"
	"ccsvm/internal/dram"
	"ccsvm/internal/mem"
	"ccsvm/internal/sim"
)

// snoopFilter approximates coherence among the APU's CPU cores: it tracks
// which hierarchies hold each line so a write by one core invalidates the
// copies cached by the others. Timing-wise this favours the APU (invalidation
// is free), which is the direction the paper's methodology deliberately errs
// in.
type snoopFilter struct {
	// holders is one bitmask per line, bit i set while hierarchy i may hold
	// it; Config.Validate caps NumCPUs at 64 so the ids fit.
	holders map[mem.LineAddr]uint64
	// hiers is indexed by hierarchy id.
	hiers []*PrivateHierarchy
}

// newSnoopFilter builds a filter over holders, an empty map (the machine
// draws it from its arena).
func newSnoopFilter(holders map[mem.LineAddr]uint64) *snoopFilter {
	return &snoopFilter{holders: holders}
}

// register hands the hierarchy the stable ID that orders snoop
// invalidations.
func (s *snoopFilter) register(h *PrivateHierarchy) {
	h.id = len(s.hiers)
	s.hiers = append(s.hiers, h)
}

func (s *snoopFilter) touch(h *PrivateHierarchy, line mem.LineAddr) {
	s.holders[line] |= 1 << h.id
}

// invalidateOthers drops every other hierarchy's copy of line, in ascending
// id (registration) order. Each invalidation only touches that hierarchy's
// own arrays, so the effects commute, but a fixed order keeps same-seed runs
// bit-identical.
func (s *snoopFilter) invalidateOthers(h *PrivateHierarchy, line mem.LineAddr) {
	self := uint64(1) << h.id
	set := s.holders[line]
	others := set &^ self
	if others == 0 {
		return
	}
	for ; others != 0; others &= others - 1 {
		s.hiers[bits.TrailingZeros64(others)].invalidateLine(line)
	}
	s.holders[line] = set & self
}

// PrivateHierarchy is one CPU core's private L1+L2 cache hierarchy backed by
// DRAM. It implements mem.Port.
type PrivateHierarchy struct {
	engine *sim.Engine
	id     int
	l1     *cache.Array
	l2     *cache.Array
	l1Hit  sim.Duration
	l2Hit  sim.Duration
	dram   *dram.Controller
	filter *snoopFilter
	// freeMisses recycles DRAM-miss carriers (see dramMiss).
	freeMisses []*dramMiss

	Stats HierarchyStats
}

// HierarchyStats are a private hierarchy's event counters.
type HierarchyStats struct {
	// L1Hits, L2Hits and Misses count accesses by the level that served
	// them; a miss goes to DRAM.
	L1Hits, L2Hits, Misses uint64
	// Writebacks counts dirty lines written back to DRAM.
	Writebacks uint64
}

// HierarchyConfig describes one private hierarchy (Table 2 APU column: 64 KB
// 4-way L1 with a 1 ns hit, 1 MB L2 with a 3.6 ns hit).
type HierarchyConfig struct {
	L1         cache.Config
	L2         cache.Config
	L1Hit      sim.Duration
	L2Hit      sim.Duration
	WriteAlloc bool
}

// DefaultHierarchyConfig returns the Table 2 APU CPU cache parameters.
func DefaultHierarchyConfig(name string) HierarchyConfig {
	return HierarchyConfig{
		L1:         cache.Config{SizeBytes: 64 * 1024, Assoc: 4, Name: name + ".l1"},
		L2:         cache.Config{SizeBytes: 1 << 20, Assoc: 16, Name: name + ".l2"},
		L1Hit:      1 * sim.Nanosecond,
		L2Hit:      3600 * sim.Picosecond,
		WriteAlloc: true,
	}
}

// NewPrivateHierarchy builds a hierarchy around empty L1 and L2 tag arrays of
// cfg's geometries. The caller builds the arrays, so a machine can draw them
// from a simarena.Arena; the hierarchy owns them from then on.
func NewPrivateHierarchy(engine *sim.Engine, cfg HierarchyConfig, l1, l2 *cache.Array, d *dram.Controller,
	filter *snoopFilter) *PrivateHierarchy {
	h := &PrivateHierarchy{
		engine: engine,
		l1:     l1,
		l2:     l2,
		l1Hit:  cfg.L1Hit,
		l2Hit:  cfg.L2Hit,
		dram:   d,
		filter: filter,
	}
	if filter != nil {
		filter.register(h)
	}
	return h
}

// Access implements mem.Port.
func (h *PrivateHierarchy) Access(req mem.Request, done func()) {
	line := req.Line()
	write := req.Type.NeedsExclusive()
	if write {
		h.filter.invalidateOthers(h, line)
	}
	if l := h.l1.Touch(line); l != nil {
		h.Stats.L1Hits++
		if write {
			l.Dirty = true
		}
		h.filter.touch(h, line)
		h.engine.Schedule(h.l1Hit, done)
		return
	}
	if l := h.l2.Touch(line); l != nil {
		h.Stats.L2Hits++
		h.fillL1(line, write)
		h.filter.touch(h, line)
		h.engine.Schedule(h.l1Hit+h.l2Hit, done)
		return
	}
	// Miss to DRAM.
	h.Stats.Misses++
	var r *dramMiss
	if n := len(h.freeMisses); n > 0 {
		r = h.freeMisses[n-1]
		h.freeMisses = h.freeMisses[:n-1]
	} else {
		r = &dramMiss{h: h}
		r.fillFn = r.fill
	}
	r.line, r.write, r.done = line, write, done
	h.dram.Read(line, r.fillFn)
}

// dramMiss carries one L2 miss to DRAM and back. Carriers are recycled
// through PrivateHierarchy.freeMisses and their fill callback is bound once,
// so a miss allocates nothing in steady state.
type dramMiss struct {
	h      *PrivateHierarchy
	line   mem.LineAddr
	write  bool
	done   func()
	fillFn func()
}

// fill installs the line in both levels and completes the access.
func (r *dramMiss) fill() {
	h, line, write, done := r.h, r.line, r.write, r.done
	r.done = nil
	h.freeMisses = append(h.freeMisses, r)
	h.fillL2(line)
	h.fillL1(line, write)
	h.filter.touch(h, line)
	h.engine.Schedule(h.l1Hit+h.l2Hit, done)
}

func (h *PrivateHierarchy) fillL1(line mem.LineAddr, dirty bool) {
	l, victim, evicted, ok := h.l1.Allocate(line)
	if !ok {
		return
	}
	l.State = cache.Shared
	l.Dirty = dirty
	if evicted && victim.Dirty {
		// Write back into the L2 (keep it dirty there).
		if v := h.l2.Touch(victim.Addr); v != nil {
			v.Dirty = true
		}
	}
	_ = victim
}

func (h *PrivateHierarchy) fillL2(line mem.LineAddr) {
	l, victim, evicted, ok := h.l2.Allocate(line)
	if !ok {
		return
	}
	l.State = cache.Shared
	if evicted && victim.Dirty {
		h.Stats.Writebacks++
		h.dram.Write(victim.Addr, nil)
	}
}

func (h *PrivateHierarchy) invalidateLine(line mem.LineAddr) {
	h.l1.Invalidate(line)
	h.l2.Invalidate(line)
}

// FlushRange writes back and invalidates every cached line in [base,
// base+size): the OpenCL runtime uses it when a mapped buffer is unmapped so
// the GPU (which bypasses the CPU caches) sees the data in DRAM. It returns
// the number of lines written back, and charges their DRAM bandwidth.
func (h *PrivateHierarchy) FlushRange(base mem.VAddr, size uint64, done func()) int {
	first := mem.LineOf(mem.PAddr(base))
	last := mem.LineOf(mem.PAddr(base + mem.VAddr(size) - 1))
	written := 0
	for line := first; line <= last; line++ {
		dirty := false
		if l := h.l1.Lookup(line); l != nil && l.Dirty {
			dirty = true
		}
		if l := h.l2.Lookup(line); l != nil && l.Dirty {
			dirty = true
		}
		if dirty {
			written++
			h.dram.Write(line, nil)
		}
		h.l1.Invalidate(line)
		h.l2.Invalidate(line)
	}
	if done != nil {
		h.engine.Schedule(0, done)
	}
	return written
}

// InvalidateRange drops (without writing back) every cached line in the
// range; the runtime uses it before the CPU reads results the GPU produced in
// DRAM.
func (h *PrivateHierarchy) InvalidateRange(base mem.VAddr, size uint64) {
	first := mem.LineOf(mem.PAddr(base))
	last := mem.LineOf(mem.PAddr(base + mem.VAddr(size) - 1))
	for line := first; line <= last; line++ {
		h.l1.Invalidate(line)
		h.l2.Invalidate(line)
	}
}

var _ mem.Port = (*PrivateHierarchy)(nil)

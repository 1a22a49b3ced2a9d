// Package vm implements the shared-virtual-memory hardware of the CCSVM
// chip: per-process two-level page tables, per-core TLBs, hardware page-table
// walkers that fetch translations through the cache hierarchy, and the page
// fault / TLB shootdown machinery described in Section 3.2.1 of the paper.
package vm

import (
	"fmt"

	"ccsvm/internal/mem"
)

// Two-level page table geometry: the root (level 1) and each level-2 table
// occupy exactly one 4 KB frame of 512 eight-byte entries, covering a 1 GB
// virtual address space per process. This is a compressed version of x86-64's
// four-level tree that preserves what the evaluation measures: a TLB miss
// costs dependent memory reads through the cache hierarchy.
const (
	// EntriesPerTable is the number of PTEs in one table page.
	EntriesPerTable = mem.PageSize / 8
	// level2Shift is the bit position of the level-2 index.
	level2Shift = mem.PageShift
	// level1Shift is the bit position of the root index.
	level1Shift = mem.PageShift + 9
	// VASpaceBits is the number of virtual address bits translated.
	VASpaceBits = level1Shift + 9
	// MaxVAddr is the first virtual address beyond the translatable range.
	MaxVAddr = mem.VAddr(1) << VASpaceBits
)

// PTE is a page-table entry: bit 0 is the present bit, bit 1 the writable
// bit, and bits 12+ hold the frame number.
type PTE uint64

// NewPTE builds a present entry pointing at the given frame.
func NewPTE(frame mem.FrameNumber, writable bool) PTE {
	e := PTE(frame.Addr()) | 1
	if writable {
		e |= 2
	}
	return e
}

// Present reports whether the entry maps a page.
func (e PTE) Present() bool { return e&1 != 0 }

// Writable reports whether the mapping allows stores.
func (e PTE) Writable() bool { return e&2 != 0 }

// Frame returns the mapped physical frame.
func (e PTE) Frame() mem.FrameNumber { return mem.FrameOf(mem.PAddr(e) &^ (mem.PageSize - 1)) }

// indexes splits a virtual address into its level-1 and level-2 indexes.
func indexes(va mem.VAddr) (l1, l2 uint64) {
	return (uint64(va) >> level1Shift) % EntriesPerTable, (uint64(va) >> level2Shift) % EntriesPerTable
}

// L1EntryAddr returns the physical address of the root entry for va.
func L1EntryAddr(root mem.PAddr, va mem.VAddr) mem.PAddr {
	l1, _ := indexes(va)
	return root + mem.PAddr(l1*8)
}

// L2EntryAddr returns the physical address of the level-2 entry for va, given
// the level-2 table's base.
func L2EntryAddr(table mem.PAddr, va mem.VAddr) mem.PAddr {
	_, l2 := indexes(va)
	return table + mem.PAddr(l2*8)
}

// PageTable manipulates a two-level page table stored in physical memory.
// The OS uses it functionally (the timed PTE stores are issued separately by
// the fault handler); the hardware walkers read the same bytes through the
// cache hierarchy.
type PageTable struct {
	phys *mem.Physical
	root mem.PAddr
	// allocFrame hands out a zeroed frame for a new level-2 table.
	allocFrame func() mem.FrameNumber
}

// NewPageTable creates an empty page table whose root occupies the given
// frame. allocFrame is called when a new level-2 table page is needed.
func NewPageTable(phys *mem.Physical, rootFrame mem.FrameNumber, allocFrame func() mem.FrameNumber) *PageTable {
	phys.ZeroFrame(rootFrame)
	return &PageTable{phys: phys, root: rootFrame.Addr(), allocFrame: allocFrame}
}

// Root returns the physical address of the root table (the CR3 value).
func (pt *PageTable) Root() mem.PAddr { return pt.root }

// Map installs a translation from the page containing va to the given frame.
// It creates the level-2 table if necessary and returns the physical address
// of the PTE it wrote, so a timed store can be replayed through the caches.
func (pt *PageTable) Map(va mem.VAddr, frame mem.FrameNumber, writable bool) mem.PAddr {
	if va >= MaxVAddr {
		panic(fmt.Sprintf("vm: virtual address %#x beyond the %d-bit space", uint64(va), VASpaceBits))
	}
	l1Addr := L1EntryAddr(pt.root, va)
	l1 := PTE(pt.phys.ReadUint64(l1Addr))
	var tableBase mem.PAddr
	if !l1.Present() {
		f := pt.allocFrame()
		pt.phys.ZeroFrame(f)
		pt.phys.WriteUint64(l1Addr, uint64(NewPTE(f, true)))
		tableBase = f.Addr()
	} else {
		tableBase = l1.Frame().Addr()
	}
	l2Addr := L2EntryAddr(tableBase, va)
	pt.phys.WriteUint64(l2Addr, uint64(NewPTE(frame, writable)))
	return l2Addr
}

// Unmap removes the translation for the page containing va, returning the
// address of the cleared PTE and whether a mapping existed.
func (pt *PageTable) Unmap(va mem.VAddr) (mem.PAddr, bool) {
	l1 := PTE(pt.phys.ReadUint64(L1EntryAddr(pt.root, va)))
	if !l1.Present() {
		return 0, false
	}
	l2Addr := L2EntryAddr(l1.Frame().Addr(), va)
	pte := PTE(pt.phys.ReadUint64(l2Addr))
	if !pte.Present() {
		return 0, false
	}
	pt.phys.WriteUint64(l2Addr, 0)
	return l2Addr, true
}

// Lookup translates va functionally, returning the PTE and whether it is
// present. The hardware walkers do the same reads with timing.
func (pt *PageTable) Lookup(va mem.VAddr) (PTE, bool) {
	return LookupIn(pt.phys, pt.root, va)
}

// L2EntryAddrFor returns the physical address of the level-2 PTE that maps va
// in the page table rooted at root. It requires the level-2 table to exist
// (i.e. the page is mapped or its region has been walked before); the kernel
// uses it to re-issue the PTE's address for a fault that lost a mapping race.
func L2EntryAddrFor(phys *mem.Physical, root mem.PAddr, va mem.VAddr) mem.PAddr {
	l1 := PTE(phys.ReadUint64(L1EntryAddr(root, va)))
	if !l1.Present() {
		panic(fmt.Sprintf("vm: L2EntryAddrFor on unmapped region %#x", uint64(va)))
	}
	return L2EntryAddr(l1.Frame().Addr(), va)
}

// LookupIn walks an arbitrary page table rooted at root.
func LookupIn(phys *mem.Physical, root mem.PAddr, va mem.VAddr) (PTE, bool) {
	l1 := PTE(phys.ReadUint64(L1EntryAddr(root, va)))
	if !l1.Present() {
		return 0, false
	}
	pte := PTE(phys.ReadUint64(L2EntryAddr(l1.Frame().Addr(), va)))
	if !pte.Present() {
		return 0, false
	}
	return pte, true
}

// Translate translates a full virtual address to a physical address,
// reporting failure if the page is unmapped.
func (pt *PageTable) Translate(va mem.VAddr) (mem.PAddr, bool) {
	pte, ok := pt.Lookup(va)
	if !ok {
		return 0, false
	}
	return mem.Translate(pte.Frame(), va), true
}

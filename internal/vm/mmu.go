package vm

import (
	"fmt"

	"ccsvm/internal/mem"
)

// Fault describes a translation failure that must be handled by the OS (on a
// CPU core) or forwarded through the MIFD (from an MTTOP core).
type Fault struct {
	// VA is the faulting virtual address.
	VA mem.VAddr
	// Write reports whether the faulting access was a store.
	Write bool
	// Root is the CR3 value of the faulting process.
	Root mem.PAddr
}

// Error implements error so a Fault can flow through error paths in tests.
func (f *Fault) Error() string {
	kind := "read"
	if f.Write {
		kind = "write"
	}
	return fmt.Sprintf("page fault: %s of %#x (cr3 %#x)", kind, uint64(f.VA), uint64(f.Root))
}

// MMU is one core's address-translation unit: a TLB backed by a hardware
// page-table walker that reads PTEs through the core's own L1 cache port, as
// the paper's x86-faithful design requires.
type MMU struct {
	tlb    *TLB
	port   mem.Port
	phys   *mem.Physical
	root   mem.PAddr
	hasCR3 bool
	// walkFree recycles page-walk carriers (see pageWalk).
	walkFree []*pageWalk

	walks, faults uint64
}

// NewMMU builds an MMU that performs page walks through the given cache port,
// reading PTE values from the machine's functional physical memory.
func NewMMU(tlbCfg TLBConfig, port mem.Port, phys *mem.Physical) *MMU {
	return &MMU{tlb: NewTLB(tlbCfg), port: port, phys: phys}
}

// SetRoot loads the CR3 equivalent: the physical address of the current
// process's page-table root. Changing the root flushes the TLB.
func (m *MMU) SetRoot(root mem.PAddr) {
	if m.hasCR3 && m.root == root {
		return
	}
	m.root = root
	m.hasCR3 = true
	m.tlb.Flush()
}

// Root returns the current translation root.
func (m *MMU) Root() mem.PAddr { return m.root }

// TLB exposes the MMU's TLB (the MIFD flushes MTTOP TLBs on shootdown).
func (m *MMU) TLB() *TLB { return m.tlb }

// Translate resolves va. On success done(pa, nil) runs at the time the
// translation is available (immediately for a TLB hit, after the walk's
// memory accesses for a miss). On a translation failure done(0, fault) runs
// and the TLB is left unchanged; the caller is responsible for retrying after
// the fault is serviced.
func (m *MMU) Translate(va mem.VAddr, write bool, done func(pa mem.PAddr, fault *Fault)) {
	if !m.hasCR3 {
		panic("vm: translate before SetRoot")
	}
	if frame, _, ok := m.tlb.Lookup(va); ok {
		done(mem.Translate(frame, va), nil)
		return
	}
	m.walk(va, write, done)
}

// pageWalk is one page walk in flight. Carriers are recycled through
// MMU.walkFree and their step callback is bound once, so a walk allocates
// nothing in steady state.
type pageWalk struct {
	m     *MMU
	va    mem.VAddr
	write bool
	// pte is the entry being read; leaf is set once it is the second-level
	// entry.
	pte  mem.PAddr
	leaf bool
	//ccsvm:stateok // the translation's completion callback; cores re-issue quiesced accesses on restore
	done func(pa mem.PAddr, fault *Fault)
	//ccsvm:stateok // bound once when the carrier is built; rebound on restore
	stepFn func()
}

// walk performs the two dependent PTE reads of the hardware walker through
// the cache hierarchy.
//
//ccsvm:hotpath
func (m *MMU) walk(va mem.VAddr, write bool, done func(pa mem.PAddr, fault *Fault)) {
	m.walks++
	var w *pageWalk
	if n := len(m.walkFree); n > 0 {
		w = m.walkFree[n-1]
		m.walkFree[n-1] = nil
		m.walkFree = m.walkFree[:n-1]
	} else {
		w = &pageWalk{m: m} //ccsvm:allocok // free-list miss; grows to the most walks ever in flight
		w.stepFn = w.step
	}
	w.va, w.write, w.done = va, write, done
	w.pte, w.leaf = L1EntryAddr(m.root, va), false
	m.port.Access(mem.Request{Type: mem.Read, Addr: w.pte, Size: 8}, w.stepFn)
}

// step runs when a PTE read completes: the value is read functionally, then
// the walk faults, reads the second-level entry, or fills the TLB. The
// carrier is recycled before done runs, so done may start another walk.
//
//ccsvm:hotpath
func (w *pageWalk) step() {
	m := w.m
	pte := PTE(m.phys.ReadUint64(w.pte))
	if pte.Present() && !w.leaf {
		w.pte, w.leaf = L2EntryAddr(pte.Frame().Addr(), w.va), true
		m.port.Access(mem.Request{Type: mem.Read, Addr: w.pte, Size: 8}, w.stepFn)
		return
	}
	va, write, done := w.va, w.write, w.done
	w.done = nil
	m.walkFree = append(m.walkFree, w) //ccsvm:allocok // free list returns to its high-water mark
	if !pte.Present() {
		m.faults++
		done(0, m.fault(va, write))
		return
	}
	m.tlb.Insert(va, pte.Frame(), pte.Writable())
	done(mem.Translate(pte.Frame(), va), nil)
}

// fault builds the page fault a walk raises. A fault is the walker's slow
// path, serviced by the OS, so its allocation stays out of the hot-path step.
func (m *MMU) fault(va mem.VAddr, write bool) *Fault {
	return &Fault{VA: va, Write: write, Root: m.root}
}

// Walks reports how many page walks this MMU performed.
func (m *MMU) Walks() uint64 { return m.walks }

// Faults reports how many page faults this MMU raised.
func (m *MMU) Faults() uint64 { return m.faults }

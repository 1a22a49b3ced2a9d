package coherence

import (
	"testing"

	"ccsvm/internal/cache"
	"ccsvm/internal/mem"
)

// The directed MESI suite pins the semantics that distinguish the MESI table
// from MOESI: no Owned state ever, no owner-forwarding ever (the directory
// answers every requestor itself), and dirty data always flowing through the
// L2 on a downgrade.

// TestMESIWriterThenReaderSharesWithoutOwned is the MESI counterpart of
// TestWriterThenReaderMakesOwned: the previous writer downgrades to plain S
// (not O), the directory to Dir-S tracking both, and the dirty line lands in
// the L2 — not DRAM — on the way.
func TestMESIWriterThenReaderSharesWithoutOwned(t *testing.T) {
	s := newTestSystemProto(t, 2, 1, ProtocolMESI)
	s.access(0, mem.Write, 0x2000)
	s.quiesce(t)
	if st := s.l1State(0, 0x2000); st != cache.Modified {
		t.Fatalf("writer in %v, want M", st)
	}
	done := s.access(1, mem.Read, 0x2000)
	s.quiesce(t)
	if !*done {
		t.Fatal("read did not complete")
	}
	if st := s.l1State(0, 0x2000); st != cache.Shared {
		t.Fatalf("previous writer in %v, want S (MESI has no O)", st)
	}
	if st := s.l1State(1, 0x2000); st != cache.Shared {
		t.Fatalf("reader in %v, want S", st)
	}
	st, _, sharers := s.dirState(0x2000)
	if st != DirShared || len(sharers) != 2 {
		t.Fatalf("directory %v with sharers %v, want Dir-S tracking both", st, sharers)
	}
	// The dirty data was written back into the L2, never to DRAM, and the
	// reader was answered by the directory — not by the previous owner.
	if w := s.memory.Writes(); w != 0 {
		t.Fatalf("DRAM writes = %d, want 0 (L2 absorbs the downgrade writeback)", w)
	}
	if fwds := s.l1s[0].Stats.DataForwards; fwds != 0 {
		t.Fatalf("owner forwarded data %d time(s) under MESI, want 0", fwds)
	}
	if got := s.l1s[0].Stats.Forwards; got != 1 {
		t.Fatalf("owner saw %d forward(s), want 1 (the FwdGetS it answered with FwdDone only)", got)
	}
}

// TestMESIWriteMigrationForwardsNoData: on a write to a modified remote line
// the old owner invalidates and writes its dirty line back through the
// directory; the requestor's data comes from the directory.
func TestMESIWriteMigrationForwardsNoData(t *testing.T) {
	s := newTestSystemProto(t, 3, 2, ProtocolMESI)
	for core := 0; core < 3; core++ {
		done := s.access(core, mem.Write, 0x7000)
		s.quiesce(t)
		if !*done {
			t.Fatalf("core %d write did not complete", core)
		}
	}
	for core := 0; core < 2; core++ {
		if st := s.l1State(core, 0x7000); st != cache.Invalid {
			t.Fatalf("core %d in %v, want I", core, st)
		}
	}
	if st := s.l1State(2, 0x7000); st != cache.Modified {
		t.Fatalf("core 2 in %v, want M", st)
	}
	for core := 0; core < 3; core++ {
		if fwds := s.l1s[core].Stats.DataForwards; fwds != 0 {
			t.Fatalf("core %d forwarded data %d time(s) under MESI, want 0", core, fwds)
		}
	}
}

// TestMESIDirtyDataSurvivesDowngradeAndEviction: after an M->S downgrade via
// the directory, both sharers evict silently; a later reader must still see
// the line on-chip (the L2 holds the only copy of the dirty data).
func TestMESIDirtyDataSurvivesDowngradeAndEviction(t *testing.T) {
	s := newTestSystemProto(t, 2, 1, ProtocolMESI)
	base := mem.PAddr(0x30000)
	setStride := mem.PAddr(16 * mem.LineSize)
	s.access(0, mem.Write, base)
	s.quiesce(t)
	s.access(1, mem.Read, base)
	s.quiesce(t)
	// Fill core 0's set so its S copy evicts silently; core 1 keeps S.
	for i := 1; i <= 4; i++ {
		s.access(0, mem.Read, base+mem.PAddr(i)*setStride)
		s.quiesce(t)
	}
	if st := s.l1State(0, base); st != cache.Invalid {
		t.Fatalf("core 0 in %v after set fill, want I (silent S eviction)", st)
	}
	reads := s.memory.Reads()
	done := s.access(0, mem.Read, base)
	s.quiesce(t)
	if !*done {
		t.Fatal("re-read did not complete")
	}
	if s.memory.Reads() != reads {
		t.Fatal("re-read of downgraded dirty line went to DRAM; the L2 lost the writeback")
	}
}

// TestMESIReadAfterDirtyEviction: the eviction path (PutM) also lands dirty
// data in the L2 under MESI, and a remote reader is served on-chip.
func TestMESIReadAfterDirtyEviction(t *testing.T) {
	s := newTestSystemProto(t, 2, 1, ProtocolMESI)
	setStride := mem.PAddr(16 * mem.LineSize)
	base := mem.PAddr(0x20000)
	s.access(0, mem.Write, base)
	s.quiesce(t)
	for i := 1; i <= 4; i++ {
		s.access(0, mem.Write, base+mem.PAddr(i)*setStride)
		s.quiesce(t)
	}
	reads := s.memory.Reads()
	done := s.access(1, mem.Read, base)
	s.quiesce(t)
	if !*done {
		t.Fatal("read after remote eviction did not complete")
	}
	if st := s.l1State(1, base); !st.CanRead() {
		t.Fatalf("reader in %v, want a readable state", st)
	}
	if s.memory.Reads() != reads {
		t.Fatal("read of evicted dirty line went to DRAM")
	}
}

// TestMESINeverReachesOwned sweeps every L1 line and the directory under a
// contended interleaving and requires that the Owned state never appears in a
// stable snapshot.
func TestMESINeverReachesOwned(t *testing.T) {
	s := newTestSystemProto(t, 4, 2, ProtocolMESI)
	addrs := []mem.PAddr{0x1000, 0x1040, 0x9000}
	for round := 0; round < 4; round++ {
		for c := 0; c < 4; c++ {
			typ := mem.Read
			if (round+c)%2 == 0 {
				typ = mem.Write
			}
			s.access(c, typ, addrs[(round+c)%len(addrs)])
		}
		s.quiesce(t)
		for _, a := range addrs {
			for c := 0; c < 4; c++ {
				if st := s.l1State(c, a); st == cache.Owned {
					t.Fatalf("round %d: core %d reached O under MESI", round, c)
				}
			}
			if st, _, _ := s.dirState(a); st == DirOwned {
				t.Fatalf("round %d: directory reached Dir-O under MESI", round)
			}
		}
	}
}

// TestInvDuringWriteMissIsAcked is the litmus regression for the latent
// stale-sharer race the table extraction exposed: a cache silently evicts its
// S copy, refetches the line as a write (IM_AD), and — because the directory's
// sharer vector is conservative — receives the Inv of a concurrent writer
// ordered ahead of it. The Inv must be acked in place (the in-flight GetM owes
// the concurrent writer an ack; there is no copy to invalidate), not treated
// as a protocol violation. Before the fix this panicked the L1 controller.
func TestInvDuringWriteMissIsAcked(t *testing.T) {
	for _, proto := range protocolList {
		proto := proto
		t.Run(proto.Name, func(t *testing.T) {
			s := newTestSystemProto(t, 2, 1, proto)
			base := mem.PAddr(0x40000)
			setStride := mem.PAddr(16 * mem.LineSize)
			// Both cores share the line.
			s.access(0, mem.Read, base)
			s.quiesce(t)
			s.access(1, mem.Read, base)
			s.quiesce(t)
			// Core 0 silently evicts its S copy; the directory still lists it.
			for i := 1; i <= 4; i++ {
				s.access(0, mem.Read, base+mem.PAddr(i)*setStride)
				s.quiesce(t)
			}
			if st := s.l1State(0, base); st != cache.Invalid {
				t.Fatalf("core 0 in %v after set fill, want I (silent eviction)", st)
			}
			// Concurrent writes: core 1 (a real sharer, ordered first) draws an
			// Inv round that hits core 0's in-flight IM_AD write miss.
			d1 := s.access(1, mem.Write, base)
			d0 := s.access(0, mem.Write, base)
			s.quiesce(t)
			if !*d0 || !*d1 {
				t.Fatalf("writes did not complete (core0 %v, core1 %v)", *d0, *d1)
			}
			// The line migrated to the writer ordered last.
			if st := s.l1State(0, base); st != cache.Modified {
				t.Fatalf("core 0 in %v, want M (its write was ordered after core 1's)", st)
			}
			if st := s.l1State(1, base); st != cache.Invalid {
				t.Fatalf("core 1 in %v, want I", st)
			}
		})
	}
}

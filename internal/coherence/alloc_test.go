package coherence

import (
	"testing"

	"ccsvm/internal/mem"
)

// TestMissPathAllocatesNothing: once warm, the miss path allocates nothing
// under either protocol — MSHRs, L2-fill carriers, sharer lists, checker
// records and messages are all recycled. One pass reuses the same lines, so
// the directory's and the checker's maps stop growing after warm-up:
//   - read misses that also miss the L2 and fill from DRAM (20 lines in one
//     L2 set of 16 ways), evicting clean Exclusive lines from the L1;
//   - a write to a line two other L1s share, with its invalidations and acks;
//   - a read and a write the directory forwards to the line's owner;
//   - a store coalesced behind a load that gets only Shared, then reissued;
//   - writes that evict Modified lines (5 lines in one L1 set of 4 ways),
//     each with its PutM;
//   - a read of a line whose PutM is still in flight, which stalls until the
//     PutAck and then retries.
func TestMissPathAllocatesNothing(t *testing.T) {
	for _, proto := range protocolList {
		t.Run(proto.Name, func(t *testing.T) {
			s := newTestSystemProto(t, 4, 2, proto)
			done := func() {}
			access := func(l1 int, typ mem.AccessType, addr mem.PAddr) {
				s.l1s[l1].Access(mem.Request{Type: typ, Addr: addr, Size: 8}, done)
				s.engine.Run()
			}
			const (
				shared    = mem.PAddr(0x300080)
				owned     = mem.PAddr(0x3000c0)
				coalesced = mem.PAddr(0x300100)
			)
			pass := func() {
				// Bank 0, L2 set 0 and L1 set 0 for every line.
				for k := 0; k < 20; k++ {
					access(0, mem.Read, 0x100000+mem.PAddr(k)*4096)
				}
				access(1, mem.Read, shared)
				access(2, mem.Read, shared)
				access(3, mem.Write, shared)
				access(0, mem.Write, owned)
				access(1, mem.Write, owned)
				access(2, mem.Read, owned)
				// A store coalesced behind a load to a line others hold: the
				// load is granted Shared and the store reissues as an upgrade.
				access(2, mem.Write, coalesced)
				access(1, mem.Read, coalesced)
				s.l1s[0].Access(mem.Request{Type: mem.Read, Addr: coalesced, Size: 8}, done)
				access(0, mem.Write, coalesced)
				// L1 set 1 of L1 0 for every line.
				for k := 0; k < 5; k++ {
					access(0, mem.Write, 0x200040+mem.PAddr(k)*1024)
				}
				// The write evicts the set's LRU line, which the read then
				// finds with its writeback in flight.
				s.l1s[0].Access(mem.Request{Type: mem.Write, Addr: 0x200040, Size: 8}, done)
				access(0, mem.Read, 0x200440)
			}
			// Warm up until the engine's calendar, the free lists, the maps and
			// the bank's sharer buffer have reached their high-water capacity.
			for i := 0; i < 50; i++ {
				pass()
			}
			before := s.memory.Reads()
			if n := testing.AllocsPerRun(20, pass); n != 0 {
				t.Fatalf("miss path allocated %.1f objects per pass, want 0", n)
			}
			s.quiesce(t)
			var invs, fwds, dirty uint64
			for _, b := range s.banks {
				invs += b.Stats.InvalidationsSent
				fwds += b.Stats.Forwards
			}
			for _, c := range s.l1s {
				dirty += c.Stats.DirtyEvictions
			}
			for _, c := range []struct {
				name string
				got  uint64
			}{
				{"DRAM fills", s.memory.Reads() - before},
				{"invalidations", invs},
				{"forwards", fwds},
				{"dirty evictions", dirty},
			} {
				if c.got == 0 {
					t.Errorf("rig produced no %s", c.name)
				}
			}
		})
	}
}

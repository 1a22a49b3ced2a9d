package coherence

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ccsvm/internal/cache"
	"ccsvm/internal/dram"
	"ccsvm/internal/mem"
	"ccsvm/internal/noc"
	"ccsvm/internal/sim"
	"ccsvm/internal/stats"
)

// testSystem is a small CCSVM memory system: a torus, some L1 controllers,
// some directory banks and a DRAM channel, with the SWMR checker enabled.
type testSystem struct {
	engine  *sim.Engine
	torus   *noc.Torus
	l1s     []*L1Controller
	banks   []*DirectoryBank
	memory  *dram.Controller
	checker *Checker
	reg     *stats.Registry
}

func newTestSystem(t testing.TB, numL1, numBanks int) *testSystem {
	return newTestSystemProto(t, numL1, numBanks, ProtocolMOESI)
}

// newTestSystemProto builds the system running an explicit protocol table.
func newTestSystemProto(t testing.TB, numL1, numBanks int, proto *Protocol) *testSystem {
	t.Helper()
	engine := sim.NewEngine()
	reg := stats.NewRegistry("test")
	checker := NewChecker()

	// Node IDs: L1s are 0..numL1-1, banks follow.
	placement := make(map[noc.NodeID]noc.Coord)
	total := numL1 + numBanks
	width := 4
	height := (total + width - 1) / width
	if height < 1 {
		height = 1
	}
	for i := 0; i < total; i++ {
		placement[noc.NodeID(i)] = noc.Coord{X: i % width, Y: i / width}
	}
	torus := noc.NewTorus(engine, noc.DefaultTorusConfig(width, height), placement, reg)
	memory := dram.NewController(engine, dram.DefaultCCSVMConfig(), reg, "dram")

	bankIDs := make([]noc.NodeID, numBanks)
	for i := range bankIDs {
		bankIDs[i] = noc.NodeID(numL1 + i)
	}
	mapper := InterleaveBanks(bankIDs)
	pool := new(MsgPool)

	s := &testSystem{engine: engine, torus: torus, memory: memory, checker: checker, reg: reg}
	for i := 0; i < numL1; i++ {
		cfg := L1Config{
			Cache:      cache.NewArray(cache.Config{SizeBytes: 4096, Assoc: 4, Name: fmt.Sprintf("l1.%d", i)}),
			HitLatency: 690 * sim.Picosecond,
			Name:       fmt.Sprintf("l1.%d", i),
			Protocol:   proto,
			Pool:       pool,
		}
		s.l1s = append(s.l1s, NewL1Controller(engine, noc.NodeID(i), torus, mapper, cfg, checker, reg))
	}
	for i := 0; i < numBanks; i++ {
		cfg := BankConfig{
			L2:            cache.NewArray(cache.Config{SizeBytes: 64 * 1024, Assoc: 16, Name: fmt.Sprintf("l2.%d", i)}),
			AccessLatency: 3400 * sim.Picosecond,
			Name:          fmt.Sprintf("l2.%d", i),
			Protocol:      proto,
			Pool:          pool,
			Table:         NewDirTable(),
		}
		s.banks = append(s.banks, NewDirectoryBank(engine, bankIDs[i], torus, cfg, memory, reg))
	}
	// Every pooled protocol message allocated during the test must have been
	// released by the time it ends: a message parked in a queue (a directory's
	// pending request, an L1's deferred forward) and never released is a leak,
	// and a double release corrupts the free list. Both fail the test loudly.
	t.Cleanup(func() {
		ps := SumPoolStats(s.l1s, s.banks)
		if ps.DoubleReleases != 0 {
			t.Errorf("%d double-released protocol messages", ps.DoubleReleases)
		}
		if n := ps.InFlight(); n != 0 {
			t.Errorf("%d protocol messages leaked (allocated %d, released %d)", n, ps.Gets, ps.Puts)
		}
	})
	return s
}

// access issues a request on an L1 and returns a pointer to a completion flag.
func (s *testSystem) access(l1 int, typ mem.AccessType, addr mem.PAddr) *bool {
	done := new(bool)
	s.l1s[l1].Access(mem.Request{Type: typ, Addr: addr, Size: 8}, func() { *done = true })
	return done
}

// quiesce runs the engine dry and asserts that every transaction finished and
// the invariant checker saw no violation.
func (s *testSystem) quiesce(t testing.TB) {
	t.Helper()
	s.engine.Run()
	for i, l1 := range s.l1s {
		if n := l1.OutstandingTransactions(); n != 0 {
			t.Fatalf("l1.%d still has %d outstanding transactions", i, n)
		}
	}
	for i, b := range s.banks {
		if b.Busy() {
			t.Fatalf("bank %d still busy", i)
		}
	}
	if !s.checker.Ok() {
		t.Fatalf("SWMR violations: %v", s.checker.Violations)
	}
}

func (s *testSystem) l1State(l1 int, addr mem.PAddr) cache.State {
	line := s.l1s[l1].Array().Lookup(mem.LineOf(addr))
	if line == nil {
		return cache.Invalid
	}
	return line.State
}

func (s *testSystem) dirState(addr mem.PAddr) (DirState, noc.NodeID, []noc.NodeID) {
	line := mem.LineOf(addr)
	for _, b := range s.banks {
		st, owner, sharers := b.Entry(line)
		if st != DirInvalid || len(sharers) > 0 {
			return st, owner, sharers
		}
	}
	return DirInvalid, 0, nil
}

func TestFirstReaderGetsExclusive(t *testing.T) {
	s := newTestSystem(t, 2, 1)
	done := s.access(0, mem.Read, 0x1000)
	s.quiesce(t)
	if !*done {
		t.Fatal("read did not complete")
	}
	if st := s.l1State(0, 0x1000); st != cache.Exclusive {
		t.Fatalf("first reader in %v, want E", st)
	}
	st, owner, _ := s.dirState(0x1000)
	if st != DirExclusive || owner != 0 {
		t.Fatalf("directory %v owner %d, want Dir-EM owner 0", st, owner)
	}
	if s.memory.Reads() != 1 {
		t.Fatalf("DRAM reads = %d, want 1 (cold miss)", s.memory.Reads())
	}
}

func TestSecondReaderDowngradesToShared(t *testing.T) {
	s := newTestSystem(t, 2, 1)
	s.access(0, mem.Read, 0x1000)
	s.quiesce(t)
	s.access(1, mem.Read, 0x1000)
	s.quiesce(t)
	if st := s.l1State(0, 0x1000); st != cache.Shared {
		t.Fatalf("first reader in %v after second read, want S", st)
	}
	if st := s.l1State(1, 0x1000); st != cache.Shared {
		t.Fatalf("second reader in %v, want S", st)
	}
	st, _, sharers := s.dirState(0x1000)
	if st != DirShared || len(sharers) != 2 {
		t.Fatalf("directory %v with %d sharers, want Dir-S with 2", st, len(sharers))
	}
	// The second reader must not have gone off-chip: the data was on chip.
	if s.memory.Reads() != 1 {
		t.Fatalf("DRAM reads = %d, want 1 (second read served on-chip)", s.memory.Reads())
	}
}

func TestWriterThenReaderMakesOwned(t *testing.T) {
	s := newTestSystem(t, 2, 1)
	s.access(0, mem.Write, 0x2000)
	s.quiesce(t)
	if st := s.l1State(0, 0x2000); st != cache.Modified {
		t.Fatalf("writer in %v, want M", st)
	}
	s.access(1, mem.Read, 0x2000)
	s.quiesce(t)
	if st := s.l1State(0, 0x2000); st != cache.Owned {
		t.Fatalf("previous writer in %v, want O", st)
	}
	if st := s.l1State(1, 0x2000); st != cache.Shared {
		t.Fatalf("reader in %v, want S", st)
	}
	st, owner, sharers := s.dirState(0x2000)
	if st != DirOwned || owner != 0 || len(sharers) != 1 {
		t.Fatalf("directory %v owner %d sharers %v", st, owner, sharers)
	}
}

func TestWriterInvalidatesSharers(t *testing.T) {
	s := newTestSystem(t, 3, 2)
	s.access(0, mem.Read, 0x3000)
	s.quiesce(t)
	s.access(1, mem.Read, 0x3000)
	s.quiesce(t)
	s.access(2, mem.Write, 0x3000)
	s.quiesce(t)
	if st := s.l1State(0, 0x3000); st != cache.Invalid {
		t.Fatalf("sharer 0 in %v, want I", st)
	}
	if st := s.l1State(1, 0x3000); st != cache.Invalid {
		t.Fatalf("sharer 1 in %v, want I", st)
	}
	if st := s.l1State(2, 0x3000); st != cache.Modified {
		t.Fatalf("writer in %v, want M", st)
	}
	st, owner, _ := s.dirState(0x3000)
	if st != DirExclusive || owner != 2 {
		t.Fatalf("directory %v owner %d, want Dir-EM owner 2", st, owner)
	}
}

func TestUpgradeFromShared(t *testing.T) {
	s := newTestSystem(t, 2, 1)
	s.access(0, mem.Read, 0x4000)
	s.quiesce(t)
	s.access(1, mem.Read, 0x4000)
	s.quiesce(t)
	// Core 1 upgrades its shared copy.
	s.access(1, mem.Write, 0x4000)
	s.quiesce(t)
	if st := s.l1State(1, 0x4000); st != cache.Modified {
		t.Fatalf("upgrader in %v, want M", st)
	}
	if st := s.l1State(0, 0x4000); st != cache.Invalid {
		t.Fatalf("other sharer in %v, want I", st)
	}
}

func TestWriteAfterExclusiveReadIsSilentUpgrade(t *testing.T) {
	s := newTestSystem(t, 2, 1)
	s.access(0, mem.Read, 0x5000)
	s.quiesce(t)
	before := s.reg.Sum("l1.0.misses")
	s.access(0, mem.Write, 0x5000)
	s.quiesce(t)
	if st := s.l1State(0, 0x5000); st != cache.Modified {
		t.Fatalf("state %v, want M after silent upgrade", st)
	}
	if after := s.reg.Sum("l1.0.misses"); after != before {
		t.Fatalf("silent E->M upgrade should not miss (misses %d -> %d)", before, after)
	}
}

func TestAtomicRMWBehavesAsWrite(t *testing.T) {
	s := newTestSystem(t, 2, 1)
	s.access(0, mem.Read, 0x6000)
	s.quiesce(t)
	s.access(1, mem.ReadModifyWrite, 0x6000)
	s.quiesce(t)
	if st := s.l1State(1, 0x6000); st != cache.Modified {
		t.Fatalf("atomic requester in %v, want M", st)
	}
	if st := s.l1State(0, 0x6000); st != cache.Invalid {
		t.Fatalf("previous holder in %v, want I", st)
	}
}

func TestMigratorySharing(t *testing.T) {
	// A line written by core 0, then 1, then 2 migrates; exactly one writer
	// at any time and the final directory owner is core 2.
	s := newTestSystem(t, 3, 2)
	for core := 0; core < 3; core++ {
		s.access(core, mem.Write, 0x7000)
		s.quiesce(t)
	}
	for core := 0; core < 2; core++ {
		if st := s.l1State(core, 0x7000); st != cache.Invalid {
			t.Fatalf("core %d in %v, want I", core, st)
		}
	}
	if st := s.l1State(2, 0x7000); st != cache.Modified {
		t.Fatalf("core 2 in %v, want M", st)
	}
}

func TestDirtyEvictionWritesBackToL2NotDRAM(t *testing.T) {
	s := newTestSystem(t, 1, 1)
	// The test L1 is 4 KB, 4-way, 16 sets: lines 0, 16, 32, ... map to set 0.
	setStride := mem.PAddr(16 * mem.LineSize)
	base := mem.PAddr(0x10000)
	for i := 0; i < 5; i++ {
		s.access(0, mem.Write, base+mem.PAddr(i)*setStride)
		s.quiesce(t)
	}
	// One line was evicted dirty; it must have been written back into the L2
	// (PutM) without a DRAM write (the L2 absorbs it).
	if got := s.reg.Sum("l1.0.evictions_dirty"); got != 1 {
		t.Fatalf("dirty evictions = %d, want 1", got)
	}
	if w := s.memory.Writes(); w != 0 {
		t.Fatalf("DRAM writes = %d, want 0 (L2 absorbs the writeback)", w)
	}
	// Re-reading the evicted line must return it from the L2, not DRAM.
	reads := s.memory.Reads()
	s.access(0, mem.Read, base)
	s.quiesce(t)
	if s.memory.Reads() != reads {
		t.Fatalf("re-read of written-back line went to DRAM")
	}
}

func TestReadAfterRemoteEvictionStillWorks(t *testing.T) {
	s := newTestSystem(t, 2, 1)
	setStride := mem.PAddr(16 * mem.LineSize)
	base := mem.PAddr(0x20000)
	// Core 0 dirties a line, then evicts it by filling the set.
	s.access(0, mem.Write, base)
	s.quiesce(t)
	for i := 1; i <= 4; i++ {
		s.access(0, mem.Write, base+mem.PAddr(i)*setStride)
		s.quiesce(t)
	}
	// Core 1 reads the original line; it must complete and become readable.
	done := s.access(1, mem.Read, base)
	s.quiesce(t)
	if !*done {
		t.Fatal("read after remote eviction did not complete")
	}
	if st := s.l1State(1, base); !st.CanRead() {
		t.Fatalf("reader in %v, want a readable state", st)
	}
}

func TestFlushWritesEverythingBack(t *testing.T) {
	s := newTestSystem(t, 1, 1)
	for i := 0; i < 8; i++ {
		s.access(0, mem.Write, mem.PAddr(0x30000+i*mem.LineSize))
	}
	s.quiesce(t)
	s.l1s[0].Flush()
	s.quiesce(t)
	if occ := s.l1s[0].Array().Occupancy(); occ != 0 {
		t.Fatalf("occupancy after flush = %d, want 0", occ)
	}
	st, _, _ := s.dirState(0x30000)
	if st != DirInvalid {
		t.Fatalf("directory state after flush = %v, want Dir-I", st)
	}
}

func TestMSHRCoalescingSameLine(t *testing.T) {
	s := newTestSystem(t, 1, 1)
	// Two reads to the same line issued back to back: one miss, both complete.
	d1 := s.access(0, mem.Read, 0x9000)
	d2 := s.access(0, mem.Read, 0x9008)
	s.quiesce(t)
	if !*d1 || !*d2 {
		t.Fatal("coalesced reads did not both complete")
	}
	if m := s.reg.Sum("l1.0.misses"); m != 1 {
		t.Fatalf("misses = %d, want 1 (coalesced)", m)
	}
}

func TestWriteCoalescedBehindReadUpgrades(t *testing.T) {
	s := newTestSystem(t, 2, 1)
	// Another core holds the line S so that our read is granted S (not E),
	// forcing the coalesced write to upgrade afterwards.
	s.access(1, mem.Read, 0xa000)
	s.quiesce(t)
	s.access(1, mem.Read, 0xa000) // keep it S at core 1
	d1 := s.access(0, mem.Read, 0xa000)
	d2 := s.access(0, mem.Write, 0xa008)
	s.quiesce(t)
	if !*d1 || !*d2 {
		t.Fatal("read+write to same line did not complete")
	}
	if st := s.l1State(0, 0xa000); st != cache.Modified {
		t.Fatalf("final state %v, want M", st)
	}
}

// TestRandomStress drives several cores with random traffic over a small set
// of lines (maximizing conflicts) and checks that every access completes,
// every controller quiesces, and SWMR is never violated.
func TestRandomStress(t *testing.T) {
	seeds := []int64{1, 2, 3, 7, 42}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, proto := range protocolList {
		for _, seed := range seeds {
			proto, seed := proto, seed
			t.Run(fmt.Sprintf("%s/seed%d", proto.Name, seed), func(t *testing.T) {
				runRandomStress(t, proto, seed, 6, 4, 2000)
			})
		}
	}
}

func runRandomStress(t *testing.T, proto *Protocol, seed int64, cores, banks, ops int) {
	rng := rand.New(rand.NewSource(seed))
	s := newTestSystemProto(t, cores, banks, proto)

	// 24 distinct lines, several of which collide in the same L1 set.
	lines := make([]mem.PAddr, 24)
	for i := range lines {
		lines[i] = mem.PAddr(0x100000 + i*mem.LineSize*3)
	}

	completed := 0
	var issue func(core int, remaining int)
	issue = func(core int, remaining int) {
		if remaining == 0 {
			return
		}
		addr := lines[rng.Intn(len(lines))] + mem.PAddr(rng.Intn(7)*8)
		var typ mem.AccessType
		switch rng.Intn(3) {
		case 0:
			typ = mem.Read
		case 1:
			typ = mem.Write
		default:
			typ = mem.ReadModifyWrite
		}
		delay := sim.Duration(rng.Intn(2000)) * sim.Picosecond
		s.engine.Schedule(delay, func() {
			s.l1s[core].Access(mem.Request{Type: typ, Addr: addr, Size: 8}, func() {
				completed++
				issue(core, remaining-1)
			})
		})
	}
	perCore := ops / cores
	for c := 0; c < cores; c++ {
		issue(c, perCore)
	}
	s.quiesce(t)
	if completed != perCore*cores {
		t.Fatalf("completed %d accesses, want %d", completed, perCore*cores)
	}
}

// TestRandomStressManyBanksFewLines pushes harder on directory blocking and
// forwarding by using very few lines.
func TestRandomStressFewLines(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	s := newTestSystem(t, 8, 4)
	lines := []mem.PAddr{0x100000, 0x100040, 0x100080}
	completed := 0
	total := 0
	var issue func(core, remaining int)
	issue = func(core, remaining int) {
		if remaining == 0 {
			return
		}
		addr := lines[rng.Intn(len(lines))]
		typ := mem.Read
		if rng.Intn(2) == 0 {
			typ = mem.Write
		}
		s.engine.Schedule(sim.Duration(rng.Intn(500)), func() {
			s.l1s[core].Access(mem.Request{Type: typ, Addr: addr, Size: 8}, func() {
				completed++
				issue(core, remaining-1)
			})
		})
	}
	for c := 0; c < 8; c++ {
		issue(c, 150)
		total += 150
	}
	s.quiesce(t)
	if completed != total {
		t.Fatalf("completed %d, want %d", completed, total)
	}
}

// checkerRecord is one Checker.Record call.
type checkerRecord struct {
	node noc.NodeID
	st   cache.State
}

// TestCheckerDetectsViolations drives the SWMR checker through record
// sequences on one line and checks which invariant each one breaks, the
// holders left behind, and the text of the first violation, which
// RunProgram returns as the run's error.
func TestCheckerDetectsViolations(t *testing.T) {
	const addr = mem.LineAddr(0x40)
	cases := []struct {
		name    string
		records []checkerRecord
		// want lists the expected violations by their leading word
		// ("SWMR", "ownership"), in order.
		want    []string
		holders map[noc.NodeID]cache.State
		// first, when set, pins the first violation's text.
		first string
	}{
		{
			name:    "two writers",
			records: []checkerRecord{{0, cache.Modified}, {1, cache.Modified}},
			want:    []string{"SWMR", "ownership"},
			holders: map[noc.NodeID]cache.State{0: cache.Modified, 1: cache.Modified},
			first:   "SWMR: line(0x1000) has 2 writers: map[0:M 1:M]",
		},
		{
			name:    "writer and reader",
			records: []checkerRecord{{0, cache.Modified}, {1, cache.Shared}},
			want:    []string{"SWMR"},
			holders: map[noc.NodeID]cache.State{0: cache.Modified, 1: cache.Shared},
		},
		{
			name:    "exclusive and shared",
			records: []checkerRecord{{0, cache.Exclusive}, {1, cache.Shared}},
			want:    []string{"SWMR"},
			holders: map[noc.NodeID]cache.State{0: cache.Exclusive, 1: cache.Shared},
		},
		{
			// Owned grants no write permission, so only the ownership check
			// sees two owners.
			name:    "two owned",
			records: []checkerRecord{{2, cache.Owned}, {5, cache.Owned}},
			want:    []string{"ownership"},
			holders: map[noc.NodeID]cache.State{2: cache.Owned, 5: cache.Owned},
			first:   "ownership: line(0x1000) has 2 owner-state holders: map[2:O 5:O]",
		},
		{
			name:    "legal sharing",
			records: []checkerRecord{{0, cache.Shared}, {1, cache.Shared}, {0, cache.Invalid}},
			holders: map[noc.NodeID]cache.State{1: cache.Shared},
		},
		{
			name:    "owned with sharers",
			records: []checkerRecord{{0, cache.Owned}, {1, cache.Shared}, {2, cache.Shared}},
			holders: map[noc.NodeID]cache.State{0: cache.Owned, 1: cache.Shared, 2: cache.Shared},
		},
		{
			// Every holder drops the line, so its record is recycled; the
			// dropped holders' states must not come back with it.
			name: "recorded again after every holder dropped it",
			records: []checkerRecord{
				{0, cache.Shared}, {1, cache.Shared}, {0, cache.Invalid}, {1, cache.Invalid},
				{2, cache.Modified}, {3, cache.Modified},
			},
			want:    []string{"SWMR", "ownership"},
			holders: map[noc.NodeID]cache.State{2: cache.Modified, 3: cache.Modified},
			first:   "SWMR: line(0x1000) has 2 writers: map[2:M 3:M]",
		},
		{
			name:    "highest node",
			records: []checkerRecord{{63, cache.Modified}, {0, cache.Invalid}},
			holders: map[noc.NodeID]cache.State{63: cache.Modified},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewChecker()
			for _, r := range tc.records {
				c.Record(r.node, addr, r.st)
			}
			if len(c.Violations) != len(tc.want) {
				t.Fatalf("violations %q, want %d starting %q", c.Violations, len(tc.want), tc.want)
			}
			for i, w := range tc.want {
				if !strings.HasPrefix(c.Violations[i], w+":") {
					t.Errorf("violation %d is %q, want a %s violation", i, c.Violations[i], w)
				}
			}
			if tc.first != "" && c.Violations[0] != tc.first {
				t.Errorf("first violation %q, want %q", c.Violations[0], tc.first)
			}
			if c.Ok() != (len(tc.want) == 0) {
				t.Errorf("Ok() = %v with violations %q", c.Ok(), c.Violations)
			}
			if got := c.Holders(addr); !reflect.DeepEqual(got, tc.holders) {
				t.Errorf("holders %v, want %v", got, tc.holders)
			}
		})
	}
	t.Run("node 64 panics", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("recording node 64 did not panic")
			}
		}()
		NewChecker().Record(64, addr, cache.Shared)
	})
}

// TestCheckerResetForgetsHolders pins what a recycled checker must forget: a
// line two nodes held before Reset is recorded at a third afterwards, and the
// stale holders must not come back with the recycled record as phantom
// readers. Reset must also drop old violations and re-enable checking.
func TestCheckerResetForgetsHolders(t *testing.T) {
	const addr = mem.LineAddr(0x10400)
	c := NewChecker()
	c.Record(0, addr, cache.Shared)
	c.Record(1, addr, cache.Shared)
	c.Record(0, addr+1, cache.Modified)
	c.Record(1, addr+1, cache.Modified)
	if c.Ok() {
		t.Fatal("two writers of one line went unreported; the Reset check would prove nothing")
	}
	c.SetEnabled(false)

	c.Reset()
	if !c.Ok() {
		t.Fatalf("Reset kept violations %q", c.Violations)
	}
	c.Record(2, addr, cache.Modified)
	if !c.Ok() {
		t.Fatalf("record after Reset saw phantom holders: %q", c.Violations)
	}
	if got, want := c.Holders(addr), map[noc.NodeID]cache.State{2: cache.Modified}; !reflect.DeepEqual(got, want) {
		t.Fatalf("holders after Reset %v, want %v (checking must be re-enabled)", got, want)
	}
}

// TestDirTableReset pins what a recycled directory table must forget: an
// entry with an owner, sharers, a pending forward and a queued request is
// zeroed by Reset, the line's next request reuses it, and the bank then
// treats the line as one no cache holds.
func TestDirTableReset(t *testing.T) {
	s := newTestSystem(t, 3, 1)
	b := s.banks[0]
	line := mem.LineOf(0x1000)
	e := b.table.entryOf(line)
	e.state, e.owner, e.sharers = DirOwned, 1, nodeBit(0)|nodeBit(2)
	e.busy = true
	e.pending = &Msg{Type: MsgGetM, Addr: line, Requestor: 2}
	e.queue = append(e.queue, &Msg{Type: MsgGetS, Addr: line, Requestor: 0})
	if st, owner, sharers := b.Entry(line); st != DirOwned || owner != 1 || len(sharers) != 2 || !b.Busy() {
		t.Fatalf("set-up entry %v owner %d sharers %v busy %v", st, owner, sharers, b.Busy())
	}

	b.table.Reset()
	if b.Busy() {
		t.Fatal("bank busy after its table was Reset")
	}
	if got := b.table.entryOf(line); got != e {
		t.Fatal("entryOf allocated a new entry instead of reusing the reset one")
	}
	if st, owner, sharers := b.Entry(line); st != DirInvalid || owner != 0 || len(sharers) != 0 {
		t.Fatalf("reused entry %v owner %d sharers %v, want Dir-I with no owner or sharers", st, owner, sharers)
	}
	if e.pending != nil || len(e.queue) != 0 {
		t.Fatalf("reused entry kept pending %v and %d queued requests", e.pending, len(e.queue))
	}

	// The first reader of the line is granted Exclusive, as on a fresh bank.
	done := s.access(0, mem.Read, 0x1000)
	s.quiesce(t)
	if !*done || s.l1State(0, 0x1000) != cache.Exclusive {
		t.Fatalf("read after Reset done=%v in %v, want E", *done, s.l1State(0, 0x1000))
	}
}

func TestInterleaveBanks(t *testing.T) {
	banks := []noc.NodeID{10, 11, 12, 13}
	mapper := InterleaveBanks(banks)
	counts := make(map[noc.NodeID]int)
	for i := 0; i < 400; i++ {
		counts[mapper(mem.LineAddr(i))]++
	}
	for _, b := range banks {
		if counts[b] != 100 {
			t.Fatalf("bank %d got %d lines, want 100", b, counts[b])
		}
	}
	if mapper(0) != mapper(4) || mapper(0) == mapper(1) {
		t.Fatal("interleaving pattern wrong")
	}
}

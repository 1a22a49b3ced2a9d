package memtest

import (
	"fmt"
	"strings"

	"ccsvm/internal/cache"
	"ccsvm/internal/coherence"
	"ccsvm/internal/core"
	"ccsvm/internal/exec"
	"ccsvm/internal/mem"
	"ccsvm/internal/noc"
	"ccsvm/internal/sim"
	"ccsvm/internal/xthreads"
)

// lineStride spaces the working set's lines 3 lines apart, so consecutive
// table lines land in different L2 banks and different L1 sets while still
// colliding in the tiny machines' few sets.
const lineStride = 3 * mem.LineSize

// maxFailures bounds how many failure descriptions one run records.
const maxFailures = 50

// Report is the outcome of one stress run.
type Report struct {
	// Seed echoes the configuration's seed.
	Seed int64
	// Ops is the number of operations that completed.
	Ops int
	// SimTime is the simulated time the run consumed.
	SimTime sim.Duration
	// Events is the engine's executed-event count.
	Events uint64
	// TraceHash fingerprints the full event trace (see sim.Engine.TraceHash)
	// and MemHash the final values of every slot in the shared working set;
	// together they are the determinism contract's observables.
	TraceHash uint64
	MemHash   uint64
	// Pool is the system-wide protocol-message accounting. core's RunProgram
	// fails a round that leaves it unbalanced.
	Pool coherence.PoolStats
	// Failures lists every check that failed, empty on a clean run.
	Failures []string
}

// OK reports whether the run passed every check.
func (r Report) OK() bool { return len(r.Failures) == 0 }

// FailureSummary formats the failures for logs (empty string when OK).
func (r Report) FailureSummary() string {
	if r.OK() {
		return ""
	}
	return fmt.Sprintf("%d failure(s):\n  %s", len(r.Failures), strings.Join(r.Failures, "\n  "))
}

// RunSeed generates and runs the program for the configuration.
func RunSeed(cfg Config) Report {
	return RunProgram(cfg, Generate(cfg))
}

// harness carries one run's oracle state. Workload goroutines update it
// between their operations; the exec handoff protocol keeps exactly one
// workload goroutine runnable at a time (the engine blocks in Thread.Next
// until the goroutine issues its next op), so the updates are serialized in
// global-performance order without locks and the shadow mirrors the
// functional memory exactly.
type harness struct {
	addrs     []mem.VAddr // slot -> virtual address
	shadow    []uint64    // slot -> last value written (the oracle)
	nextVal   uint64
	completed int
	failures  []string
}

func (h *harness) fail(format string, args ...any) {
	if len(h.failures) < maxFailures {
		h.failures = append(h.failures, fmt.Sprintf(format, args...))
	}
}

// exec interprets one thread's op segment against the machine. Both CPU and
// MTTOP contexts embed *exec.Context, so one interpreter serves both.
func (h *harness) exec(c *exec.Context, tid int, ops []Op) {
	for i, op := range ops {
		switch op.Kind {
		case OpCompute:
			c.Compute(int64(op.Arg%64) + 1)
		case OpRead:
			got := c.Load64(h.addrs[op.Slot])
			if want := h.shadow[op.Slot]; got != want {
				h.fail("oracle: thread %d op %d read slot %d = %#x, last writer stored %#x", tid, i, op.Slot, got, want)
			}
		case OpWrite:
			h.nextVal++
			v := h.nextVal
			c.Store64(h.addrs[op.Slot], v)
			h.shadow[op.Slot] = v
		case OpAtomic:
			old := c.AtomicAdd64(h.addrs[op.Slot], 1)
			if want := h.shadow[op.Slot]; old != want {
				h.fail("linearizability: thread %d op %d fetch-add on slot %d returned %#x, chain expects %#x", tid, i, op.Slot, old, want)
			}
			h.shadow[op.Slot]++
		}
		h.completed++
	}
}

// segment returns round r of rounds of a thread's op list.
func segment(ops []Op, r, rounds int) []Op {
	lo := r * len(ops) / rounds
	hi := (r + 1) * len(ops) / rounds
	return ops[lo:hi]
}

// RunProgram executes a stress program on a freshly built machine and runs
// every check. It never panics: machine-model panics (the protocol asserts
// its own state aggressively) are captured as failures, which is what lets
// the fuzz targets and the shrinker treat any misbehavior uniformly.
func RunProgram(cfg Config, prog Program) (rep Report) {
	cfg = cfg.normalized()
	rep.Seed = cfg.Seed
	h := &harness{
		addrs:  make([]mem.VAddr, cfg.slots()),
		shadow: make([]uint64, cfg.slots()),
	}
	defer func() {
		rep.Ops = h.completed
		rep.Failures = append(rep.Failures, h.failures...)
		h.failures = nil
		if r := recover(); r != nil {
			rep.Failures = append(rep.Failures, fmt.Sprintf("panic: %v", r))
		}
	}()

	mc, err := cfg.machineConfig()
	if err != nil {
		h.fail("%v", err)
		return rep
	}
	proto, err := coherence.LookupProtocol(mc.Coherence.Protocol)
	if err != nil {
		h.fail("%v", err)
		return rep
	}
	m := core.NewMachine(mc)
	defer m.Shutdown()
	m.Engine.EnableTraceHash()
	if cfg.InjectSkipInvalidations > 0 {
		for _, b := range m.DirectoryBanks() {
			b.InjectSkipInvalidations(cfg.InjectSkipInvalidations)
		}
	}

	base := m.Alloc(uint64(cfg.Lines * lineStride))
	for line := 0; line < cfg.Lines; line++ {
		for s := 0; s < cfg.SlotsPerLine; s++ {
			h.addrs[line*cfg.SlotsPerLine+s] = base + mem.VAddr(line*lineStride+8*s)
		}
	}

	for r := 0; r < cfg.Rounds; r++ {
		// Side CPU threads round-robin over the cores other than 0 (which
		// runs main); with a single core they queue behind main.
		for i := 1; i < len(prog.CPU); i++ {
			tid, seg := i, segment(prog.CPU[i], r, cfg.Rounds)
			if len(seg) == 0 {
				continue
			}
			t := m.Runtime.NewCPUThread(fmt.Sprintf("stress-cpu%d-r%d", i, r),
				func(c *xthreads.CPUContext) { h.exec(c.Context, tid, seg) })
			coreIdx := 0
			if len(m.CPUs) > 1 {
				coreIdx = 1 + (i-1)%(len(m.CPUs)-1)
			}
			m.CPUs[coreIdx].Run(t, nil)
		}
		round := r
		kid := -1
		if len(prog.MTTOP) > 0 {
			kid = m.RegisterKernel(func(mc *xthreads.MTTOPContext) {
				tid := mc.TID()
				h.exec(mc.Context, len(prog.CPU)+tid, segment(prog.MTTOP[tid], round, cfg.Rounds))
			})
		}
		_, err := m.RunProgram(func(c *xthreads.CPUContext) {
			if kid >= 0 {
				c.CreateMThreads(kid, 0, 0, len(prog.MTTOP)-1)
			}
			var seg []Op
			if len(prog.CPU) > 0 {
				seg = segment(prog.CPU[0], round, cfg.Rounds)
			}
			h.exec(c.Context, 0, seg)
		})
		if err != nil {
			h.fail("round %d: %v", r, err)
			break
		}
		sampleQuiesce(m, h, proto, r)
	}

	if !proto.HasOwned {
		var fwds uint64
		for _, c := range m.L1Controllers() {
			fwds += c.Stats.DataForwards
		}
		if fwds != 0 {
			h.fail("protocol %s: %d cache-to-cache data forwards under a no-owner-forwarding protocol", proto.Name, fwds)
		}
	}

	for i, v := range m.Checker.Violations {
		if i >= maxFailures {
			break
		}
		h.fail("checker: %s", v)
	}
	rep.Pool = coherence.SumPoolStats(m.L1Controllers(), m.DirectoryBanks())
	if want := prog.Ops(); len(h.failures) == 0 && h.completed != want {
		h.fail("completion: %d of %d operations completed", h.completed, want)
	}

	rep.SimTime = m.Engine.Now().Sub(0)
	rep.Events = m.Engine.Executed()
	rep.TraceHash = m.Engine.TraceHash()
	hash := uint64(14695981039346656037)
	for _, va := range h.addrs {
		hash = (hash ^ m.MemReadUint64(va)) * 1099511628211
	}
	rep.MemHash = hash
	return rep
}

// sampleQuiesce cross-checks the directory's view of every working-set line
// against the actual L1 states at a quiesce point: all controllers drained,
// at most one owner per line, no writer coexisting with a reader, and the
// directory state/owner/sharer-vector consistent with (conservatively, a
// superset of) the true holders. The checks are parameterized by protocol:
// under one without the Owned state, neither an L1 in O nor a Dir-O entry may
// ever exist, not even transiently between rounds.
func sampleQuiesce(m *core.Machine, h *harness, proto *coherence.Protocol, round int) {
	l1s := m.L1Controllers()
	for i, c := range l1s {
		if n := c.OutstandingTransactions(); n != 0 {
			h.fail("quiesce round %d: l1 %d has %d outstanding transactions", round, i, n)
		}
	}
	for i, b := range m.DirectoryBanks() {
		if b.Busy() {
			h.fail("quiesce round %d: directory bank %d still busy", round, i)
		}
	}

	seen := make(map[mem.LineAddr]bool)
	for _, va := range h.addrs {
		pa, ok := m.Process.Table.Translate(va)
		if !ok {
			continue // never touched (possible after shrinking)
		}
		la := mem.LineOf(pa)
		if seen[la] {
			continue
		}
		seen[la] = true
		checkLine(m, h, proto, round, la)
	}
}

// checkLine verifies one line's invariants at quiesce.
func checkLine(m *core.Machine, h *harness, proto *coherence.Protocol, round int, la mem.LineAddr) {
	fail := func(format string, args ...any) {
		h.fail("quiesce round %d line %v: "+format, append([]any{round, la}, args...)...)
	}

	// Gather the actual stable L1 states. The checks below walk the holders
	// in L1 order, so the failures of one line list in the same order on
	// every run; the map prints them sorted.
	holders := make(map[noc.NodeID]cache.State)
	var held []noc.NodeID
	owners := 0
	writers := 0
	readers := 0
	for i, c := range m.L1Controllers() {
		l := c.Array().Lookup(la)
		if l == nil {
			continue
		}
		if !l.State.Stable() {
			fail("l1 %d holds transient state %v at quiesce", i, l.State)
			continue
		}
		if l.State == cache.Invalid {
			continue
		}
		if !proto.HasOwned && l.State == cache.Owned {
			fail("l1 %d holds Owned under protocol %s, which has no O state", i, proto.Name)
		}
		holders[c.NodeID()] = l.State
		held = append(held, c.NodeID())
		if l.State.IsOwnerState() {
			owners++
		}
		if l.State.CanWrite() {
			writers++
		}
		if l.State.CanRead() {
			readers++
		}
	}
	if owners > 1 {
		fail("%d owner-state holders: %v", owners, holders)
	}
	if writers > 0 && readers > writers {
		fail("a writable copy coexists with readers: %v", holders)
	}

	// Find the directory entry; exactly one bank may track the line.
	tracked := 0
	var dirState coherence.DirState
	var dirOwner noc.NodeID
	var dirSharers []noc.NodeID
	for _, b := range m.DirectoryBanks() {
		st, owner, sharers := b.Entry(la)
		if st == coherence.DirInvalid && len(sharers) == 0 {
			continue
		}
		tracked++
		dirState, dirOwner, dirSharers = st, owner, sharers
	}
	if tracked > 1 {
		fail("tracked by %d directory banks", tracked)
		return
	}
	sharerSet := make(map[noc.NodeID]bool, len(dirSharers))
	for _, s := range dirSharers {
		sharerSet[s] = true
	}

	switch {
	case tracked == 0 || dirState == coherence.DirInvalid:
		if len(holders) != 0 {
			fail("directory says Dir-I but L1s hold %v", holders)
		}
	case dirState == coherence.DirShared:
		// Silent S evictions make the sharer vector conservative: actual
		// holders must be a subset, all in S.
		for _, n := range held {
			if st := holders[n]; st != cache.Shared {
				fail("Dir-S but l1 node %d holds %v", n, st)
			}
			if !sharerSet[n] {
				fail("Dir-S sharer vector %v misses actual holder %d", dirSharers, n)
			}
		}
	case dirState == coherence.DirExclusive:
		st, ok := holders[dirOwner]
		if !ok || (st != cache.Exclusive && st != cache.Modified) {
			fail("Dir-EM owner %d actually holds %v (holders %v)", dirOwner, st, holders)
		}
		if len(holders) > 1 {
			fail("Dir-EM with extra holders: %v", holders)
		}
	case dirState == coherence.DirOwned:
		if !proto.HasOwned {
			fail("directory tracks Dir-O under protocol %s, which has no O state", proto.Name)
			return
		}
		st, ok := holders[dirOwner]
		if !ok || st != cache.Owned {
			fail("Dir-O owner %d actually holds %v", dirOwner, st)
		}
		for _, n := range held {
			if n == dirOwner {
				continue
			}
			if hst := holders[n]; hst != cache.Shared {
				fail("Dir-O but non-owner node %d holds %v", n, hst)
			}
			if !sharerSet[n] {
				fail("Dir-O sharer vector %v misses actual holder %d", dirSharers, n)
			}
		}
	}
}

// Package simarena pools the expensive, resettable building blocks of a
// simulated machine across runs: the discrete-event engine (whose event free
// list and calendar backing arrays are the hottest allocations in a sweep),
// the physical memory (whose lazily materialized frames dominate resident
// bytes), every cache tag array (the L1s, L2/directory banks, APU private
// caches and GPU read cache — most of the bytes a machine allocates), the
// CCSVM chip's SWMR checker and directory entry tables and the APU's snoop
// filter map (per-line maps and records a run otherwise rebuilds from
// empty), and the harvested free lists of the coherence and network message
// pools and of the exec gate's op batches.
//
// Whole controllers come back too, each reset to what its constructor
// builds but keeping its storage: the CCSVM chip's L1 coherence controllers
// (their MSHR and access-carrier free lists, each MSHR with its coalescing
// and deferred lists, their stall buffers and their MSHR and eviction maps),
// its MMUs (their page-walk carriers and TLB entry storage) and the APU's
// GPU memory path (its write-buffer map and read-miss carriers). A part
// parked mid-run, as a run over its budget leaves it, drops whatever was in
// flight with the old machine's engine.
//
// The arena also carries the per-thread host objects, which a machine that
// starts a software thread per xthreads MTTOP thread or OpenCL work-item
// would otherwise build a thousand at a time: the exec gate's threads, each
// with the records its runtimes attached (an xthreads MTTOPContext, an
// OpenCL WorkItemContext), which are refilled for the next task, the pool
// of MTTOP hardware contexts the cores of one machine share, and the gate's
// pool of workload coroutines. A parked coroutine is a live goroutine: it
// outlives its thread, parked for the next one, and the Run call that
// started it, but not the arena's owner. The ccsvm.Runner keeps its
// workers' arenas with their coroutines parked and ends them in a GC
// cleanup once the Runner is dropped; any other owner ends them
// (StopCoroutines) once it is done with the arena, and must before it drops
// the arena. StopCoroutines empties the pool, so later machines start new
// coroutines.
//
// An Arena belongs to exactly one sweep worker at a time — it is
// deliberately not synchronized, matching the simulator's one-goroutine-per-
// machine execution model. The ccsvm.Runner keeps its workers' arenas
// between Run calls, so an arena builds a part only when it has none of that
// shape parked: once a worker has run a machine of some shape, every later
// machine of it, in the same call or a later one, draws the recycled parts,
// and a reused Runner stops paying construction and garbage-collection cost
// per run. A recycled tag array is reset in time proportional to the sets
// the previous run wrote, so building a machine costs what the last run
// touched rather than the chip's capacity. Parked arrays are kept per
// geometry; a worker that sweeps several cache sizes keeps one machine's
// worth of arrays for each.
//
// Reuse is observation-equivalent to fresh construction: every recycled part
// is reset to fresh-machine semantics (engine at time zero with an empty
// queue, memory all-zero at the requested capacity, tag arrays empty with
// their LRU clock at zero, checker enabled with no line held and no
// violation, directory tables and snoop maps with no entry, messages
// indistinguishable from pool-miss allocations, threads and contexts reset
// to unused, with each thread's records overwritten before their next use,
// controllers, MMUs and the GPU memory path rewired with no transaction,
// translation or buffered write and zero counts),
// so a sweep over a reused arena produces
// bit-identical Results — the runner's byte-identity test enforces this.
package simarena

import (
	"ccsvm/internal/cache"
	"ccsvm/internal/coherence"
	"ccsvm/internal/dram"
	"ccsvm/internal/exec"
	"ccsvm/internal/gpumem"
	"ccsvm/internal/mem"
	"ccsvm/internal/mttop"
	"ccsvm/internal/noc"
	"ccsvm/internal/sim"
	"ccsvm/internal/vm"
)

// Stats counts the arena's traffic: how many component requests were served
// from the free lists versus built fresh. Purely observability; not part of
// any Result.
type Stats struct {
	// EngineReuses/EngineBuilds count Engine() calls served from the arena
	// versus constructed.
	EngineReuses, EngineBuilds uint64
	// PhysicalReuses/PhysicalBuilds count Physical() calls likewise.
	PhysicalReuses, PhysicalBuilds uint64
	// ArrayReuses/ArrayBuilds count Array() calls likewise.
	ArrayReuses, ArrayBuilds uint64
	// CheckerReuses/CheckerBuilds count Checker() calls likewise.
	CheckerReuses, CheckerBuilds uint64
	// TableReuses/TableBuilds count DirTable() calls likewise.
	TableReuses, TableBuilds uint64
	// CohMsgs/NocMsgs count protocol and network messages currently parked on
	// the arena between machines.
	CohMsgs, NocMsgs int
	// Batches counts the op batches parked likewise, and BatchOps the ops
	// their storage holds without growing.
	Batches, BatchOps int
	// Threads counts the exec threads parked likewise, and Contexts the
	// MTTOP hardware contexts of the parked context pools.
	Threads, Contexts int
	// Coroutines counts the workload coroutines parked likewise, each a
	// live goroutine until StopCoroutines.
	Coroutines int
	// L1Reuses/L1Builds count L1Controller() calls served from the arena
	// versus constructed, MMUReuses/MMUBuilds MMU() calls, and
	// GPUMemReuses/GPUMemBuilds GPUMemory() calls.
	L1Reuses, L1Builds, MMUReuses, MMUBuilds, GPUMemReuses, GPUMemBuilds uint64
	// L1s, MMUs and GPUMems count those parts parked likewise.
	L1s, MMUs, GPUMems int
	// SnoopMapReuses/SnoopMapBuilds count SnoopMap() calls served from the
	// arena versus constructed.
	SnoopMapReuses, SnoopMapBuilds uint64
}

// Arena is a per-worker free store of machine parts. The zero value is ready
// to use; a nil *Arena is also valid and makes every method fall through to
// fresh construction, so machine constructors call it unconditionally.
type Arena struct {
	engines  []*sim.Engine
	phys     []*mem.Physical
	arrays   map[geometry][]*cache.Array
	checkers []*coherence.Checker
	tables   []*coherence.DirTable
	cohMsgs  []*coherence.Msg
	nocMsgs  []*noc.Message
	batches  []*exec.Batch
	threads  []*exec.Thread
	cos      []*exec.Coroutine
	pools    []*mttop.ContextPool
	snoops   []map[mem.LineAddr]uint64
	l1s      []*coherence.L1Controller
	mmus     []*vm.MMU
	gpuMems  []*gpumem.Memory
	stats    Stats
}

// New returns an empty arena.
func New() *Arena { return &Arena{} }

// pop takes the most recently parked part off s, clearing its slot so the
// arena keeps no second reference; ok is false when nothing is parked.
func pop[T any](s *[]T) (part T, ok bool) {
	n := len(*s)
	if n == 0 {
		return part, false
	}
	part = (*s)[n-1]
	var zero T
	(*s)[n-1] = zero
	*s = (*s)[:n-1]
	return part, true
}

// Engine returns an engine with fresh semantics: a recycled one when the
// arena has one parked (already Reset), otherwise a new one.
func (a *Arena) Engine() *sim.Engine {
	if a != nil {
		if e, ok := pop(&a.engines); ok {
			a.stats.EngineReuses++
			return e
		}
		a.stats.EngineBuilds++
	}
	return sim.NewEngine()
}

// RecycleEngine resets the engine (releasing any still-queued events into its
// free list) and parks it for the next machine. No-op on a nil arena or
// engine.
func (a *Arena) RecycleEngine(e *sim.Engine) {
	if a == nil || e == nil {
		return
	}
	e.Reset()
	a.engines = append(a.engines, e)
}

// Physical returns a physical memory of the given capacity with every byte
// zero: a recycled one when available (Reset to the requested size, keeping
// its materialized frames), otherwise a new one.
func (a *Arena) Physical(size uint64) *mem.Physical {
	if a != nil {
		if p, ok := pop(&a.phys); ok {
			p.Reset(size)
			a.stats.PhysicalReuses++
			return p
		}
		a.stats.PhysicalBuilds++
	}
	return mem.NewPhysical(size)
}

// RecyclePhysical parks a memory for reuse. The expensive zeroing happens at
// the next Physical() call, which also knows the capacity the next machine
// wants. No-op on a nil arena or memory.
func (a *Arena) RecyclePhysical(p *mem.Physical) {
	if a == nil || p == nil {
		return
	}
	a.phys = append(a.phys, p)
}

// geometry is the shape a parked tag array can be reused for.
type geometry struct{ sizeBytes, assoc int }

// Array returns an empty tag array of cfg's geometry named cfg.Name: a
// recycled one of equal SizeBytes and Assoc when the arena has one parked
// (Reset, which clears only the sets its last run wrote), otherwise a new
// one.
func (a *Arena) Array(cfg cache.Config) *cache.Array {
	if a != nil {
		g := geometry{cfg.SizeBytes, cfg.Assoc}
		parked := a.arrays[g]
		if arr, ok := pop(&parked); ok {
			a.arrays[g] = parked
			arr.Reset(cfg.Name)
			a.stats.ArrayReuses++
			return arr
		}
		a.stats.ArrayBuilds++
	}
	return cache.NewArray(cfg)
}

// RecycleArray parks a tag array for the next machine. The reset happens at
// the next Array() call, which also knows the name the next machine wants.
// No-op on a nil arena or array.
func (a *Arena) RecycleArray(arr *cache.Array) {
	if a == nil || arr == nil {
		return
	}
	if a.arrays == nil {
		a.arrays = make(map[geometry][]*cache.Array)
	}
	c := arr.Config()
	g := geometry{c.SizeBytes, c.Assoc}
	a.arrays[g] = append(a.arrays[g], arr)
}

// Checker returns an enabled SWMR checker with nothing recorded: a recycled
// one when the arena has one parked (already Reset), otherwise a new one.
func (a *Arena) Checker() *coherence.Checker {
	if a != nil {
		if c, ok := pop(&a.checkers); ok {
			a.stats.CheckerReuses++
			return c
		}
		a.stats.CheckerBuilds++
	}
	return coherence.NewChecker()
}

// RecycleChecker resets the checker (keeping its line map and records) and
// parks it for the next machine. No-op on a nil arena or checker.
func (a *Arena) RecycleChecker(c *coherence.Checker) {
	if a == nil || c == nil {
		return
	}
	c.Reset()
	a.checkers = append(a.checkers, c)
}

// DirTable returns an empty directory entry table: a recycled one when the
// arena has one parked (already Reset), otherwise a new one.
func (a *Arena) DirTable() *coherence.DirTable {
	if a != nil {
		if t, ok := pop(&a.tables); ok {
			a.stats.TableReuses++
			return t
		}
		a.stats.TableBuilds++
	}
	return coherence.NewDirTable()
}

// RecycleDirTable resets the table (keeping its map capacity and entries)
// and parks it for the next machine. No-op on a nil arena or table.
func (a *Arena) RecycleDirTable(t *coherence.DirTable) {
	if a == nil || t == nil {
		return
	}
	t.Reset()
	a.tables = append(a.tables, t)
}

// TakeCohMsgs hands the parked coherence-protocol messages to the caller
// (typically to seed a new machine's message pool) and empties the arena's
// list. Returns nil when the arena is nil or empty.
func (a *Arena) TakeCohMsgs() []*coherence.Msg {
	if a == nil || len(a.cohMsgs) == 0 {
		return nil
	}
	ms := a.cohMsgs
	a.cohMsgs = nil
	a.stats.CohMsgs = 0
	return ms
}

// RecycleCohMsgs parks drained coherence messages for the next machine.
func (a *Arena) RecycleCohMsgs(ms []*coherence.Msg) {
	if a == nil || len(ms) == 0 {
		return
	}
	if a.cohMsgs == nil {
		a.cohMsgs = ms
	} else {
		a.cohMsgs = append(a.cohMsgs, ms...)
	}
	a.stats.CohMsgs = len(a.cohMsgs)
}

// TakeNocMsgs hands the parked network-message envelopes to the caller and
// empties the arena's list. Returns nil when the arena is nil or empty.
func (a *Arena) TakeNocMsgs() []*noc.Message {
	if a == nil || len(a.nocMsgs) == 0 {
		return nil
	}
	ms := a.nocMsgs
	a.nocMsgs = nil
	a.stats.NocMsgs = 0
	return ms
}

// RecycleNocMsgs parks drained network envelopes for the next machine.
func (a *Arena) RecycleNocMsgs(ms []*noc.Message) {
	if a == nil || len(ms) == 0 {
		return
	}
	if a.nocMsgs == nil {
		a.nocMsgs = ms
	} else {
		a.nocMsgs = append(a.nocMsgs, ms...)
	}
	a.stats.NocMsgs = len(a.nocMsgs)
}

// TakeBatches hands the parked op batches to the caller (to seed a new
// machine's gate) and empties the arena's list. Returns nil when the arena
// is nil or empty.
func (a *Arena) TakeBatches() []*exec.Batch {
	if a == nil || len(a.batches) == 0 {
		return nil
	}
	bs := a.batches
	a.batches = nil
	a.stats.Batches, a.stats.BatchOps = 0, 0
	return bs
}

// RecycleBatches parks a drained gate's op batches for the next machine.
func (a *Arena) RecycleBatches(bs []*exec.Batch) {
	if a == nil || len(bs) == 0 {
		return
	}
	if a.batches == nil {
		a.batches = bs
	} else {
		a.batches = append(a.batches, bs...)
	}
	for _, b := range bs {
		a.stats.BatchOps += b.Cap()
	}
	a.stats.Batches = len(a.batches)
}

// TakeThreads hands the parked exec threads to the caller (to seed a new
// machine's gate) and empties the arena's list. Returns nil when the arena
// is nil or empty.
func (a *Arena) TakeThreads() []*exec.Thread {
	if a == nil || len(a.threads) == 0 {
		return nil
	}
	ts := a.threads
	a.threads = nil
	a.stats.Threads = 0
	return ts
}

// RecycleThreads parks a drained gate's threads for the next machine.
func (a *Arena) RecycleThreads(ts []*exec.Thread) {
	if a == nil || len(ts) == 0 {
		return
	}
	if a.threads == nil {
		a.threads = ts
	} else {
		a.threads = append(a.threads, ts...)
	}
	a.stats.Threads = len(a.threads)
}

// TakeCoroutines hands the parked workload coroutines to the caller (to
// seed a new machine's gate) and empties the arena's list. Returns nil when
// the arena is nil or empty.
func (a *Arena) TakeCoroutines() []*exec.Coroutine {
	if a == nil || len(a.cos) == 0 {
		return nil
	}
	cs := a.cos
	a.cos = nil
	return cs
}

// RecycleCoroutines parks a drained gate's coroutine pool for the next
// machine. They stay parked goroutines until StopCoroutines.
func (a *Arena) RecycleCoroutines(cs []*exec.Coroutine) {
	if a == nil || len(cs) == 0 {
		return
	}
	if a.cos == nil {
		a.cos = cs
	} else {
		a.cos = append(a.cos, cs...)
	}
}

// StopCoroutines ends the goroutine of every parked coroutine and empties
// the pool, so later machines start new ones. The arena's owner calls it
// once it is done with the arena: a forgotten call leaks the parked
// goroutines, at most one machine's peak of live threads. No-op on a nil
// arena.
func (a *Arena) StopCoroutines() {
	if a == nil {
		return
	}
	for _, c := range a.cos {
		c.Stop()
	}
	a.cos = nil
}

// ContextPool returns a pool of MTTOP hardware contexts: a parked one, with
// the contexts an earlier machine built, when the arena has one, otherwise
// an empty one.
func (a *Arena) ContextPool() *mttop.ContextPool {
	if a != nil {
		if p, ok := pop(&a.pools); ok {
			a.stats.Contexts -= p.Len()
			return p
		}
	}
	return new(mttop.ContextPool)
}

// RecycleContextPool parks a machine's context pool for the next machine.
// No-op on a nil arena or pool.
func (a *Arena) RecycleContextPool(p *mttop.ContextPool) {
	if a == nil || p == nil {
		return
	}
	a.pools = append(a.pools, p)
	a.stats.Contexts += p.Len()
}

// SnoopMap returns an empty line-to-holders map for the APU's snoop
// filter: a recycled one when the arena has one parked (already cleared,
// keeping its buckets), otherwise a new one.
func (a *Arena) SnoopMap() map[mem.LineAddr]uint64 {
	if a != nil {
		if m, ok := pop(&a.snoops); ok {
			a.stats.SnoopMapReuses++
			return m
		}
		a.stats.SnoopMapBuilds++
	}
	return make(map[mem.LineAddr]uint64)
}

// RecycleSnoopMap clears the map and parks it for the next machine. No-op
// on a nil arena or map.
func (a *Arena) RecycleSnoopMap(m map[mem.LineAddr]uint64) {
	if a == nil || m == nil {
		return
	}
	clear(m)
	a.snoops = append(a.snoops, m)
}

// L1Controller returns an L1 controller wired as
// coherence.NewL1Controller(engine, id, net, banks, cfg, checker) builds
// one: a parked one when the arena has one (Reset, which keeps its pools,
// maps and stall buffers), otherwise a new one.
func (a *Arena) L1Controller(engine *sim.Engine, id noc.NodeID, net *noc.Torus, banks coherence.BankMapper,
	cfg coherence.L1Config, checker *coherence.Checker) *coherence.L1Controller {
	if a != nil {
		if c, ok := pop(&a.l1s); ok {
			a.stats.L1s--
			c.Reset(engine, id, net, banks, cfg, checker)
			a.stats.L1Reuses++
			return c
		}
		a.stats.L1Builds++
	}
	return coherence.NewL1Controller(engine, id, net, banks, cfg, checker)
}

// RecycleL1Controller parks an L1 controller for the next machine, whose
// L1Controller() call resets it. No-op on a nil arena or controller.
func (a *Arena) RecycleL1Controller(c *coherence.L1Controller) {
	if a == nil || c == nil {
		return
	}
	a.l1s = append(a.l1s, c)
	a.stats.L1s++
}

// MMU returns an MMU as vm.NewMMU(tlbCfg, port, phys) builds one: a parked
// one when the arena has one (Reset, which keeps its page-walk carriers and
// TLB entry storage), otherwise a new one.
func (a *Arena) MMU(tlbCfg vm.TLBConfig, port mem.Port, phys *mem.Physical) *vm.MMU {
	if a != nil {
		if m, ok := pop(&a.mmus); ok {
			a.stats.MMUs--
			m.Reset(tlbCfg, port, phys)
			a.stats.MMUReuses++
			return m
		}
		a.stats.MMUBuilds++
	}
	return vm.NewMMU(tlbCfg, port, phys)
}

// RecycleMMU parks an MMU for the next machine, whose MMU() call resets it.
// No-op on a nil arena or MMU.
func (a *Arena) RecycleMMU(m *vm.MMU) {
	if a == nil || m == nil {
		return
	}
	a.mmus = append(a.mmus, m)
	a.stats.MMUs++
}

// GPUMemory returns an APU GPU memory path as gpumem.New(engine, cfg,
// readCache, d) builds one: a parked one when the arena has one (Reset,
// which keeps its write-buffer map and read-miss carriers), otherwise a new
// one.
func (a *Arena) GPUMemory(engine *sim.Engine, cfg gpumem.Config, readCache *cache.Array, d *dram.Controller) *gpumem.Memory {
	if a != nil {
		if g, ok := pop(&a.gpuMems); ok {
			a.stats.GPUMems--
			g.Reset(engine, cfg, readCache, d)
			a.stats.GPUMemReuses++
			return g
		}
		a.stats.GPUMemBuilds++
	}
	return gpumem.New(engine, cfg, readCache, d)
}

// RecycleGPUMemory parks a GPU memory path for the next machine, whose
// GPUMemory() call resets it. No-op on a nil arena or path.
func (a *Arena) RecycleGPUMemory(g *gpumem.Memory) {
	if a == nil || g == nil {
		return
	}
	a.gpuMems = append(a.gpuMems, g)
	a.stats.GPUMems++
}

// Stats reports the arena's reuse accounting. Nil arenas report zeroes.
func (a *Arena) Stats() Stats {
	if a == nil {
		return Stats{}
	}
	s := a.stats
	s.Coroutines = len(a.cos)
	return s
}

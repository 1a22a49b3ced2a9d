package apu

import (
	"ccsvm/internal/cache"
	"ccsvm/internal/dram"
	"ccsvm/internal/mem"
	"ccsvm/internal/sim"
)

// GPUMemory is the GPU side of the APU's memory system: accesses bypass the
// CPU caches and go to DRAM over the high-bandwidth "garlic" path, with a
// small read cache and a write-combining buffer that model the coalescing a
// real GPU performs across the lanes of a wavefront. It implements mem.Port
// and is shared by all SIMD units.
type GPUMemory struct {
	engine *sim.Engine
	dram   *dram.Controller

	readCache *cache.Array
	readHit   sim.Duration

	// writeBuf holds lines with pending partial writes, mapped to their
	// insertion sequence so eviction is FIFO (and deterministic); a full or
	// evicted line costs one DRAM write.
	writeBuf    map[mem.LineAddr]int
	writeSeq    int
	writeBufMax int
	// freeMisses recycles read-miss carriers (see gpuReadMiss).
	freeMisses []*gpuReadMiss

	Stats GPUMemStats
}

// GPUMemStats are the GPU memory path's event counters.
type GPUMemStats struct {
	// ReadHits and ReadMisses count read-cache lookups by outcome.
	ReadHits, ReadMisses uint64
	// CombinedWrites counts writes merged into a buffered line; WriteLines
	// counts lines that took a fresh buffer slot.
	CombinedWrites, WriteLines uint64
}

// GPUMemConfig describes the GPU memory path.
type GPUMemConfig struct {
	// ReadCacheBytes is the small on-GPU read cache (per-chip aggregate).
	ReadCacheBytes int
	// ReadCacheAssoc is its associativity.
	ReadCacheAssoc int
	// ReadHit is the read-cache hit latency.
	ReadHit sim.Duration
	// WriteBufferLines is the capacity of the write-combining buffer.
	WriteBufferLines int
}

// DefaultGPUMemConfig returns the GPU memory-path parameters used for the
// Llano-like baseline.
func DefaultGPUMemConfig() GPUMemConfig {
	return GPUMemConfig{
		ReadCacheBytes:   32 * 1024,
		ReadCacheAssoc:   8,
		ReadHit:          2 * sim.Nanosecond,
		WriteBufferLines: 32,
	}
}

// NewGPUMemory builds the GPU memory path around an empty read-cache tag
// array of cfg's ReadCacheBytes and ReadCacheAssoc, built by the caller as
// for NewPrivateHierarchy.
func NewGPUMemory(engine *sim.Engine, cfg GPUMemConfig, readCache *cache.Array, d *dram.Controller) *GPUMemory {
	return &GPUMemory{
		engine:      engine,
		dram:        d,
		readCache:   readCache,
		readHit:     cfg.ReadHit,
		writeBuf:    make(map[mem.LineAddr]int),
		writeBufMax: cfg.WriteBufferLines,
	}
}

// Access implements mem.Port.
func (g *GPUMemory) Access(req mem.Request, done func()) {
	line := req.Line()
	if req.Type.NeedsExclusive() {
		// Write-combining: the first write to a line reserves a buffer slot;
		// subsequent writes to the same line merge for free. When the buffer
		// fills, the oldest line is written to DRAM.
		if _, ok := g.writeBuf[line]; ok {
			g.Stats.CombinedWrites++
			g.engine.Schedule(g.readHit, done)
			return
		}
		if len(g.writeBuf) >= g.writeBufMax {
			g.flushOneLine()
		}
		g.writeSeq++
		g.writeBuf[line] = g.writeSeq
		g.Stats.WriteLines++
		g.dram.Write(line, nil)
		g.engine.Schedule(g.readHit, done)
		return
	}
	if g.readCache.Touch(line) != nil {
		g.Stats.ReadHits++
		g.engine.Schedule(g.readHit, done)
		return
	}
	g.Stats.ReadMisses++
	var r *gpuReadMiss
	if n := len(g.freeMisses); n > 0 {
		r = g.freeMisses[n-1]
		g.freeMisses = g.freeMisses[:n-1]
	} else {
		r = &gpuReadMiss{g: g}
		r.fillFn = r.fill
	}
	r.line, r.done = line, done
	g.dram.Read(line, r.fillFn)
}

// gpuReadMiss carries one read miss to DRAM and back. Carriers are recycled
// through GPUMemory.freeMisses and their fill callback is bound once, so a
// miss allocates nothing in steady state.
type gpuReadMiss struct {
	g      *GPUMemory
	line   mem.LineAddr
	done   func()
	fillFn func()
}

// fill installs the line in the read cache and completes the access.
func (r *gpuReadMiss) fill() {
	g, line, done := r.g, r.line, r.done
	r.done = nil
	g.freeMisses = append(g.freeMisses, r)
	// Another in-flight miss to the same line may already have filled it.
	if g.readCache.Lookup(line) == nil {
		if l, _, _, ok := g.readCache.Allocate(line); ok {
			l.State = cache.Shared
		}
	}
	g.engine.Schedule(g.readHit, done)
}

func (g *GPUMemory) flushOneLine() {
	oldest := mem.LineAddr(0)
	oldestSeq := g.writeSeq + 1
	//ccsvm:orderinvariant
	for line, seq := range g.writeBuf {
		if seq < oldestSeq {
			oldestSeq = seq
			oldest = line
		}
	}
	if oldestSeq <= g.writeSeq {
		delete(g.writeBuf, oldest)
	}
}

// InvalidateAll drops the read cache and write buffer (between kernels).
func (g *GPUMemory) InvalidateAll() {
	g.readCache.ForEach(func(l *cache.Line) { l.Valid = false })
	clear(g.writeBuf)
}

var _ mem.Port = (*GPUMemory)(nil)

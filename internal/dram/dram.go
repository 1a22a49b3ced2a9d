// Package dram models off-chip DRAM: a fixed access latency, a bandwidth
// limit, and — most importantly for the paper's Figure 9 — counters of every
// off-chip access. Both the CCSVM chip and the APU baseline use this model,
// so "number of DRAM accesses" is measured at the same boundary on both
// machines.
package dram

import (
	"ccsvm/internal/mem"
	"ccsvm/internal/sim"
)

// Config describes one DRAM channel.
type Config struct {
	// Latency is the access latency (100 ns for the CCSVM system and 72 ns
	// for the APU in Table 2).
	Latency sim.Duration
	// Bandwidth is the channel bandwidth in bytes per second; zero disables
	// bandwidth modelling.
	Bandwidth float64
	// SizeBytes is the installed capacity (accounting only).
	SizeBytes uint64
}

// DefaultCCSVMConfig is the Table 2 CCSVM configuration: 2 GB, 100 ns.
func DefaultCCSVMConfig() Config {
	return Config{Latency: 100 * sim.Nanosecond, Bandwidth: 25.6e9, SizeBytes: 2 << 30}
}

// DefaultAPUConfig is the Table 2 APU configuration: 8 GB DDR3, 72 ns.
func DefaultAPUConfig() Config {
	return Config{Latency: 72 * sim.Nanosecond, Bandwidth: 29.8e9, SizeBytes: 8 << 30}
}

// Controller is a DRAM channel. Accesses are line-granular (the unit at which
// caches and DMA engines fetch).
type Controller struct {
	cfg    Config
	engine *sim.Engine
	freeAt sim.Time

	reads, writes uint64
}

// NewController creates a DRAM channel.
func NewController(engine *sim.Engine, cfg Config) *Controller {
	return &Controller{cfg: cfg, engine: engine}
}

// Config returns the channel configuration.
func (c *Controller) Config() Config { return c.cfg }

// Accesses reports the total number of off-chip accesses (reads + writes),
// the metric plotted in Figure 9.
func (c *Controller) Accesses() uint64 { return c.reads + c.writes }

// Reads reports the number of read accesses.
func (c *Controller) Reads() uint64 { return c.reads }

// Writes reports the number of write accesses.
func (c *Controller) Writes() uint64 { return c.writes }

// Read fetches one cache line; done runs when the data is available.
func (c *Controller) Read(addr mem.LineAddr, done func()) {
	c.reads++
	c.access(mem.LineSize, done)
}

// ReadArg is Read with the done callback in sim.Engine.AtArg form: fn(arg)
// runs when the data is available, so a caller whose callback is bound once
// and whose state rides in arg reads without allocating a closure. It
// schedules at the same point Read does, so the event order is the same.
//
//ccsvm:hotpath
func (c *Controller) ReadArg(addr mem.LineAddr, fn func(any), arg any) {
	c.reads++
	c.engine.AtArg(c.reserve(mem.LineSize), fn, arg)
}

// Write writes back one cache line; done runs when the write has been
// accepted (writes are posted, but still occupy bandwidth).
func (c *Controller) Write(addr mem.LineAddr, done func()) {
	c.writes++
	c.access(mem.LineSize, done)
}

// ReadBulk models a large sequential transfer (used by the APU DMA engine):
// it charges one latency plus the serialization of the whole transfer and
// counts the transfer as line-granular accesses, matching how a real DMA
// engine appears to the memory controller's performance counters.
func (c *Controller) ReadBulk(bytes int, done func()) {
	lines := (bytes + mem.LineSize - 1) / mem.LineSize
	c.reads += uint64(lines)
	c.access(bytes, done)
}

// WriteBulk is the write analogue of ReadBulk.
func (c *Controller) WriteBulk(bytes int, done func()) {
	lines := (bytes + mem.LineSize - 1) / mem.LineSize
	c.writes += uint64(lines)
	c.access(bytes, done)
}

func (c *Controller) access(bytes int, done func()) {
	finish := c.reserve(bytes)
	if done != nil {
		c.engine.At(finish, done)
	}
}

// reserve books the channel for a transfer of bytes starting now and returns
// the time the transfer completes.
func (c *Controller) reserve(bytes int) sim.Time {
	start := c.engine.Now()
	if c.cfg.Bandwidth > 0 {
		if c.freeAt > start {
			start = c.freeAt
		}
		ser := sim.Duration(float64(bytes)/c.cfg.Bandwidth*float64(sim.Second) + 0.5)
		c.freeAt = start.Add(ser)
	}
	return start.Add(c.cfg.Latency)
}

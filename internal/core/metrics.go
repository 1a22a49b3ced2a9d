package core

import "ccsvm/internal/stats"

// Metrics derives the per-run machine metrics of a finished (or in-flight)
// CCSVM run by summing its components' counters: cache and TLB hit rates,
// coherence protocol traffic, network-on-chip load, task-launch activity,
// and the off-chip access counts of Figure 9. The keys are stable — the
// sweep sinks emit them into JSONL — and are documented in ARCHITECTURE.md.
func (m *Machine) Metrics() map[string]float64 {
	var cpuInstrs, cpuBusyPs, mttopInstrs, tlbHits, tlbMisses uint64
	for _, c := range m.CPUs {
		cpuInstrs += c.Stats.Instructions
		cpuBusyPs += c.Stats.BusyPs
		tlbHits += c.MMU().TLB().Hits()
		tlbMisses += c.MMU().TLB().Misses()
	}
	for _, c := range m.MTTOPs {
		mttopInstrs += c.Stats.Instructions
		tlbHits += c.MMU().TLB().Hits()
		tlbMisses += c.MMU().TLB().Misses()
	}
	var l1Hits, l1Misses uint64
	for _, c := range m.l1s {
		l1Hits += c.Stats.Hits
		l1Misses += c.Stats.Misses
	}
	var invs, fwds, l2Hits, l2Misses uint64
	for _, b := range m.banks {
		invs += b.Stats.InvalidationsSent
		fwds += b.Stats.Forwards
		l2Hits += b.Stats.L2Hits
		l2Misses += b.Stats.L2Misses
	}
	torus := &m.torus.Stats
	out := map[string]float64{
		"coherence.invalidations": float64(invs),
		"coherence.forwards":      float64(fwds),
		"noc.messages":            float64(torus.Messages),
		"noc.bytes":               float64(torus.Bytes),
		"dram.reads":              float64(m.DRAM.Reads()),
		"dram.writes":             float64(m.DRAM.Writes()),
		"kernel.page_faults":      float64(m.Kernel.Stats.PageFaults),
		"kernel.tlb_shootdowns":   float64(m.Kernel.Stats.TLBShootdowns),
		"mifd.tasks":              float64(m.MIFD.Stats.Tasks),
		"mifd.threads":            float64(m.MIFD.Stats.ThreadsDispatched),
		"cpu.instructions":        float64(cpuInstrs),
		"mttop.instructions":      float64(mttopInstrs),
		"cpu.busy_us":             float64(cpuBusyPs) / 1e6,
		// sim.events is the engine's executed-event count: the denominator-free
		// measure of simulator work that the benchmark harness turns into
		// events/sec throughput.
		"sim.events": float64(m.Engine.Executed()),
		// sim.trace_hash_hi/lo carry the engine's order-sensitive event-trace
		// fingerprint, split into two 32-bit halves so each is exactly
		// representable as a float64. Equal halves across runs (and across
		// simulator versions) mean the exact same events ran in the exact same
		// order — the determinism contract, surfaced as a metric.
		"sim.trace_hash_hi": float64(m.Engine.TraceHash() >> 32),
		"sim.trace_hash_lo": float64(m.Engine.TraceHash() & 0xffffffff),
	}
	stats.AddRate(out, "l1.hit_rate", l1Hits, l1Misses)
	stats.AddRate(out, "l2.hit_rate", l2Hits, l2Misses)
	stats.AddRate(out, "tlb.hit_rate", tlbHits, tlbMisses)
	if torus.Messages > 0 {
		out["noc.mean_latency_ns"] = float64(torus.LatencyPs) / float64(torus.Messages) / 1e3
	}
	return out
}

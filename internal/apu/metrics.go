package apu

import "ccsvm/internal/stats"

// OpenCLStats are the OpenCL driver counters of one machine. Every session
// on the machine adds to the same counters.
type OpenCLStats struct {
	// KernelLaunches, WorkItems and BufferMaps count API activity.
	KernelLaunches, WorkItems, BufferMaps uint64
	// Driver-overhead time by category, in simulated picoseconds: one-time
	// init+JIT, buffer staging (create/map/unmap), and launch+sync. Together
	// they are the OpenCL overhead breakdown Metrics reports (the
	// decomposition behind the paper's Figure 5 series).
	InitPs, StagingPs, LaunchPs uint64
}

// Metrics derives the per-run machine metrics of an APU run from its
// components' counters: CPU private-cache hit rates, GPU memory-path
// coalescing, the OpenCL driver overhead breakdown (accumulated by package
// opencl), and the off-chip access counts of Figure 9. The keys are stable —
// the sweep sinks emit them into JSONL — and are documented in
// ARCHITECTURE.md.
func (m *Machine) Metrics() map[string]float64 {
	var cpuInstrs, cpuBusyPs, gpuInstrs uint64
	for _, c := range m.CPUs {
		cpuInstrs += c.Stats.Instructions
		cpuBusyPs += c.Stats.BusyPs
	}
	for _, u := range m.GPUUnits {
		gpuInstrs += u.Stats.Instructions
	}
	var l1Hits, l2Hits, misses uint64
	for _, h := range m.CPUMem {
		l1Hits += h.Stats.L1Hits
		l2Hits += h.Stats.L2Hits
		misses += h.Stats.Misses
	}
	gpu, ocl := &m.GPUMem.Stats, &m.OpenCL
	out := map[string]float64{
		"gpu.combined_writes":    float64(gpu.CombinedWrites),
		"gpu.write_lines":        float64(gpu.WriteLines),
		"dram.reads":             float64(m.DRAM.Reads()),
		"dram.writes":            float64(m.DRAM.Writes()),
		"cpu.instructions":       float64(cpuInstrs),
		"gpu.instructions":       float64(gpuInstrs),
		"cpu.busy_us":            float64(cpuBusyPs) / 1e6,
		"opencl.kernel_launches": float64(ocl.KernelLaunches),
		"opencl.work_items":      float64(ocl.WorkItems),
		"opencl.buffer_maps":     float64(ocl.BufferMaps),
		"opencl.init_us":         float64(ocl.InitPs) / 1e6,
		"opencl.staging_us":      float64(ocl.StagingPs) / 1e6,
		"opencl.launch_us":       float64(ocl.LaunchPs) / 1e6,
		// sim.events is the engine's executed-event count, the basis of the
		// benchmark harness's events/sec throughput metric.
		"sim.events": float64(m.Engine.Executed()),
		// sim.trace_hash_hi/lo are the engine's event-trace fingerprint halves
		// (see core.Machine.Metrics): equal values mean an identical event
		// order, the determinism contract as a metric.
		"sim.trace_hash_hi": float64(m.Engine.TraceHash() >> 32),
		"sim.trace_hash_lo": float64(m.Engine.TraceHash() & 0xffffffff),
	}
	stats.AddRate(out, "l1.hit_rate", l1Hits, l2Hits+misses)
	stats.AddRate(out, "l2.hit_rate", l2Hits, misses)
	stats.AddRate(out, "gpu.read_hit_rate", gpu.ReadHits, gpu.ReadMisses)
	return out
}

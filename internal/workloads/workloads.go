// Package workloads implements the benchmarks of the paper's evaluation
// (Section 5) for every system under comparison: dense matrix multiply and
// all-pairs shortest path ("typical" benchmarks, Figures 5 and 6), Barnes-Hut
// and sparse matrix multiply ("atypical" pointer-based benchmarks, Figures 7
// and 8), and the vector-add example of Figures 3 and 4. Each benchmark has
// an xthreads version for the CCSVM machine, an OpenCL version and/or a
// pthreads version for the APU machine, and a single-threaded CPU version
// that is the common baseline the paper normalizes against, plus a plain Go
// reference used to check functional correctness of every run.
package workloads

import (
	"fmt"
	"math/rand"
	"sync"

	"ccsvm/internal/mem"
	"ccsvm/internal/sim"
	"ccsvm/internal/xthreads"
)

// Result is the outcome of one benchmark run on one machine.
type Result struct {
	// Label identifies the system/configuration ("CCSVM/xthreads",
	// "APU/OpenCL", ...).
	Label string
	// Time is the simulated duration of the measured region (the offload or
	// compute phase, excluding input generation).
	Time sim.Duration
	// DRAMAccesses is the number of off-chip accesses the machine performed
	// during the whole run (Figure 9's metric).
	DRAMAccesses uint64
	// Checked reports that the functional output was verified against the
	// reference implementation.
	Checked bool
	// Metrics are the per-run machine metrics derived from the machine's
	// stats registry (cache hit rates, coherence and NoC traffic, OpenCL
	// overhead breakdown; see core.Machine.Metrics and apu.Machine.Metrics).
	// The sweep sinks emit them alongside the headline numbers.
	Metrics map[string]float64
}

// String formats the result.
func (r Result) String() string {
	return fmt.Sprintf("%-18s time=%v dram=%d", r.Label, r.Time, r.DRAMAccesses)
}

// Speedup reports how much faster r is than the baseline (baseline time /
// r time).
func (r Result) Speedup(baseline Result) float64 {
	if r.Time == 0 {
		return 0
	}
	return float64(baseline.Time) / float64(r.Time)
}

// inputRands recycles the generators that draw the runs' inputs: each
// math/rand source is a 4.9 KB table, which rand.NewSource would build again
// for every run.
var inputRands = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// inputRand returns a generator in the state rand.New(rand.NewSource(seed))
// starts in. The caller puts it back in inputRands once it is done drawing.
func inputRand(seed int64) *rand.Rand {
	rng := inputRands.Get().(*rand.Rand)
	rng.Seed(seed)
	return rng
}

// randomMatrix fills an n x n int32 matrix with small random values from a
// deterministic source.
func randomMatrix(rng *rand.Rand, n int) []int32 {
	m := make([]int32, n*n)
	for i := range m {
		m[i] = int32(rng.Intn(100))
	}
	return m
}

// matMulRef is the reference dense multiply.
func matMulRef(a, b []int32, n int) []int32 {
	c := make([]int32, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var sum int32
			for k := 0; k < n; k++ {
				sum += a[i*n+k] * b[k*n+j]
			}
			c[i*n+j] = sum
		}
	}
	return c
}

// apspRef is the reference Floyd–Warshall.
func apspRef(dist []int32, n int) []int32 {
	out := make([]int32, len(dist))
	copy(out, dist)
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d := out[i*n+k] + out[k*n+j]; d < out[i*n+j] {
					out[i*n+j] = d
				}
			}
		}
	}
	return out
}

// apspInfinity is the "no edge" distance; small enough that adding two of
// them cannot overflow an int32.
const apspInfinity int32 = 1 << 28

// randomAdjacency builds a random directed graph's adjacency matrix with the
// given edge probability.
func randomAdjacency(rng *rand.Rand, n int, edgeProb float64) []int32 {
	m := make([]int32, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			switch {
			case i == j:
				m[i*n+j] = 0
			case rng.Float64() < edgeProb:
				m[i*n+j] = int32(1 + rng.Intn(20))
			default:
				m[i*n+j] = apspInfinity
			}
		}
	}
	return m
}

// threadCountFor picks how many MTTOP threads to launch for a problem with
// the given number of independent work units, capped by the chip's hardware
// thread contexts so that tasks with global barriers are fully resident.
func threadCountFor(workUnits, hwContexts int) int {
	t := workUnits
	if t > hwContexts {
		t = hwContexts
	}
	if t < 1 {
		t = 1
	}
	return t
}

// kernelArgs loads the first len(args) 64-bit words of an xthreads kernel's
// argument block as one batch.
func kernelArgs(ctx *xthreads.MTTOPContext, args []uint64) {
	b := ctx.Batch()
	first := b.Len()
	for i := range args {
		b.Load64(ctx.Args() + mem.VAddr(8*i))
	}
	b.Run()
	for i := range args {
		args[i] = b.Value64(first + i)
	}
}

package workloads

import (
	"fmt"
	"math/rand"

	"ccsvm/internal/apu"
	"ccsvm/internal/core"
	"ccsvm/internal/exec"
	"ccsvm/internal/mem"
	"ccsvm/internal/sim"
	"ccsvm/internal/xthreads"
)

// Sparse matrix multiply (Section 5.3.2): matrices are stored as per-row
// linked lists of non-zero elements — a space-efficient, pointer-based,
// dynamically allocated representation that current CPU/GPU programming
// models cannot express on the GPU side. The xthreads version builds the
// output rows with mttop_malloc, whose CPU-serviced allocations become the
// bottleneck as density rises (the effect Figure 8 shows).
//
// Node layout: {col int32, val int32, next uint64} = 16 bytes.
const (
	smNodeSize = 16
	smOffCol   = 0
	smOffVal   = 4
	smOffNext  = 8
)

// randomSparse generates an n x n matrix with roughly the given density of
// non-zeros, returned densely for the reference multiply.
func randomSparse(rng *rand.Rand, n int, density float64) []int32 {
	m := make([]int32, n*n)
	for i := range m {
		if rng.Float64() < density {
			m[i] = int32(1 + rng.Intn(9))
		}
	}
	return m
}

// smBuildLists writes the linked-list representation of a dense matrix into
// simulated memory using the given context and allocator, returning the
// per-row head-pointer array.
func smBuildLists(ctx *exec.Context, alloc func(uint64) mem.VAddr, dense []int32, n int) mem.VAddr {
	heads := alloc(uint64(8 * n))
	for i := 0; i < n; i++ {
		ctx.Store64(heads+mem.VAddr(8*i), 0)
		var tail mem.VAddr
		for j := 0; j < n; j++ {
			v := dense[i*n+j]
			if v == 0 {
				continue
			}
			node := alloc(smNodeSize)
			ctx.Store32(node+smOffCol, uint32(j))
			ctx.Store32(node+smOffVal, uint32(v))
			ctx.Store64(node+smOffNext, 0)
			if tail == 0 {
				ctx.Store64(heads+mem.VAddr(8*i), uint64(node))
			} else {
				ctx.Store64(tail+smOffNext, uint64(node))
			}
			tail = node
		}
	}
	return heads
}

// smRowToDense reads one output row's linked list back into a dense slice
// (functional, for checking).
func smRowToDense(read64 func(mem.VAddr) uint64, read32 func(mem.VAddr) uint32, head mem.VAddr, n int) []int32 {
	row := make([]int32, n)
	for p := head; p != 0; p = mem.VAddr(read64(p + smOffNext)) {
		col := int(read32(p + smOffCol))
		row[col] += int32(read32(p + smOffVal))
	}
	return row
}

// smCompute multiplies row i of A (linked list) by B (linked lists) into the
// dense accumulator, then emits the non-zero results as a fresh linked list
// using the provided allocator (mttop_malloc on the MTTOP, malloc on the
// CPU). It returns the head of the output row.
func smCompute(ctx *exec.Context, alloc func(uint64) mem.VAddr,
	aHeads, bHeads, accum mem.VAddr, i, n int) mem.VAddr {
	// Clear the accumulator and load row i's first non-zero, as one batch.
	b := ctx.Batch()
	for j := 0; j < n; j++ {
		b.Store32(accum+mem.VAddr(4*j), 0)
	}
	first := b.Load64(aHeads + mem.VAddr(8*i))
	b.Run()
	// accum += a_ik * B[k][*] for every non-zero a_ik.
	for ap := mem.VAddr(b.Value64(first)); ap != 0; ap = mem.VAddr(ctx.Load64(ap + smOffNext)) {
		k := int(ctx.Load32(ap + smOffCol))
		av := ctx.Load32(ap + smOffVal)
		for bp := mem.VAddr(ctx.Load64(bHeads + mem.VAddr(8*k))); bp != 0; bp = mem.VAddr(ctx.Load64(bp + smOffNext)) {
			j := int(ctx.Load32(bp + smOffCol))
			bv := ctx.Load32(bp + smOffVal)
			old := ctx.Load32(accum + mem.VAddr(4*j))
			ctx.Compute(3)
			ctx.Store32(accum+mem.VAddr(4*j), old+av*bv)
		}
	}
	// Emit the non-zeros as a linked list (dynamic allocation per element).
	var head, tail mem.VAddr
	for j := 0; j < n; j++ {
		v := ctx.Load32(accum + mem.VAddr(4*j))
		if v == 0 {
			continue
		}
		node := alloc(smNodeSize)
		ctx.Store32(node+smOffCol, uint32(j))
		ctx.Store32(node+smOffVal, v)
		ctx.Store64(node+smOffNext, 0)
		if tail == 0 {
			head = node
		} else {
			ctx.Store64(tail+smOffNext, uint64(node))
		}
		tail = node
	}
	return head
}

// SparseMMXthreads runs the benchmark on the CCSVM machine: MTTOP threads
// each produce a set of output rows, allocating output nodes through
// mttop_malloc served by the CPU thread.
func SparseMMXthreads(cfg core.Config, n int, density float64, seed int64) (Result, error) {
	rng := inputRand(seed)
	defer inputRands.Put(rng)
	aDense := randomSparse(rng, n, density)
	bDense := randomSparse(rng, n, density)
	want := matMulRef(aDense, bDense, n)

	m := core.NewMachine(cfg)
	defer m.Shutdown()
	threads := threadCountFor(n, cfg.TotalMTTOPThreadContexts())

	kernel := m.RegisterKernel(func(ctx *xthreads.MTTOPContext) {
		var args [10]uint64
		kernelArgs(ctx, args[:])
		aHeads, bHeads, outHeads, accumBase := mem.VAddr(args[0]), mem.VAddr(args[1]), mem.VAddr(args[2]), mem.VAddr(args[3])
		done, size, nThreads := mem.VAddr(args[4]), int(args[5]), int(args[6])
		area := xthreads.MallocArea{
			Flags:    mem.VAddr(args[7]),
			Sizes:    mem.VAddr(args[8]),
			Results:  mem.VAddr(args[9]),
			FirstTID: 0,
		}
		tid := ctx.TID()
		accum := accumBase + mem.VAddr(4*size*tid)
		alloc := func(bytes uint64) mem.VAddr { return ctx.MTTOPMalloc(area, bytes) }
		for i := tid; i < size; i += nThreads {
			head := smCompute(ctx.Context, alloc, aHeads, bHeads, accum, i, size)
			ctx.Store64(outHeads+mem.VAddr(8*i), uint64(head))
		}
		ctx.SignalSlot(done, 0)
	})

	var measured sim.Duration
	var outHeadsVA mem.VAddr
	_, err := m.RunProgram(func(ctx *xthreads.CPUContext) {
		// Build the pointer-based inputs on the CPU (not measured: the paper
		// measures the multiply).
		aHeads := smBuildLists(ctx.Context, ctx.Malloc, aDense, n)
		bHeads := smBuildLists(ctx.Context, ctx.Malloc, bDense, n)
		outHeads := ctx.Malloc(uint64(8 * n))
		accum := ctx.Malloc(uint64(4 * n * threads))
		done := ctx.Malloc(uint64(4 * threads))
		area := ctx.AllocMallocArea(0, threads-1)
		args := ctx.Malloc(80)
		outHeadsVA = outHeads
		ctx.InitConditions(done, 0, threads-1, xthreads.CondIdle)
		ctx.Store64(args+0, uint64(aHeads))
		ctx.Store64(args+8, uint64(bHeads))
		ctx.Store64(args+16, uint64(outHeads))
		ctx.Store64(args+24, uint64(accum))
		ctx.Store64(args+32, uint64(done))
		ctx.Store64(args+40, uint64(n))
		ctx.Store64(args+48, uint64(threads))
		ctx.Store64(args+56, uint64(area.Flags))
		ctx.Store64(args+64, uint64(area.Sizes))
		ctx.Store64(args+72, uint64(area.Results))
		start := ctx.Now()
		ctx.CreateMThreads(kernel, args, 0, threads-1)
		// The CPU thread both serves mttop_malloc requests and waits for the
		// workers to finish, exactly as Table 1 describes.
		ctx.ServeMallocs(area, 0, threads-1, func(c *xthreads.CPUContext) bool {
			for i := 0; i < threads; i++ {
				if c.Load32(done+mem.VAddr(4*i)) != xthreads.CondReady {
					return false
				}
			}
			return true
		})
		measured = ctx.Now().Sub(start)
	})
	if err != nil {
		return Result{}, err
	}
	if err := smVerify(m.MemReadUint64, m.MemReadUint32, outHeadsVA, want, n); err != nil {
		return Result{}, fmt.Errorf("sparse xthreads: %w", err)
	}
	return Result{Label: "CCSVM/xthreads", Time: measured, DRAMAccesses: m.DRAMAccesses(), Checked: true, Metrics: m.Metrics()}, nil
}

// SparseMMCPU runs the same pointer-based algorithm single-threaded on one
// APU CPU core (the baseline of Figure 8).
func SparseMMCPU(cfg apu.Config, n int, density float64, seed int64) (Result, error) {
	rng := inputRand(seed)
	defer inputRands.Put(rng)
	aDense := randomSparse(rng, n, density)
	bDense := randomSparse(rng, n, density)
	want := matMulRef(aDense, bDense, n)

	m := apu.NewMachine(cfg)
	defer m.Shutdown()

	var measured sim.Duration
	var outHeadsVA mem.VAddr
	_, err := m.RunProgram(func(ctx *apu.HostContext) {
		aHeads := smBuildLists(ctx.Context, ctx.Malloc, aDense, n)
		bHeads := smBuildLists(ctx.Context, ctx.Malloc, bDense, n)
		outHeads := ctx.Malloc(uint64(8 * n))
		accum := ctx.Malloc(uint64(4 * n))
		outHeadsVA = outHeads
		start := ctx.Now()
		for i := 0; i < n; i++ {
			head := smCompute(ctx.Context, ctx.Malloc, aHeads, bHeads, accum, i, n)
			ctx.Store64(outHeads+mem.VAddr(8*i), uint64(head))
		}
		measured = ctx.Now().Sub(start)
	})
	if err != nil {
		return Result{}, err
	}
	if err := smVerify(m.MemReadUint64, m.MemReadUint32, outHeadsVA, want, n); err != nil {
		return Result{}, fmt.Errorf("sparse cpu: %w", err)
	}
	return Result{Label: "APU CPU core", Time: measured, DRAMAccesses: m.DRAMAccesses(), Checked: true, Metrics: m.Metrics()}, nil
}

// smVerify checks every output row's linked list against the dense reference.
func smVerify(read64 func(mem.VAddr) uint64, read32 func(mem.VAddr) uint32,
	outHeads mem.VAddr, want []int32, n int) error {
	for i := 0; i < n; i++ {
		head := mem.VAddr(read64(outHeads + mem.VAddr(8*i)))
		row := smRowToDense(read64, read32, head, n)
		for j := 0; j < n; j++ {
			if row[j] != want[i*n+j] {
				return fmt.Errorf("element (%d,%d) = %d, want %d", i, j, row[j], want[i*n+j])
			}
		}
	}
	return nil
}

func init() {
	Register(Workload{
		Name:        "sparse",
		Description: "sparse matrix multiply over linked lists, mttop_malloc (Figure 8)",
		UsesDensity: true,
		Runners: map[SystemKind]RunFunc{
			SystemCCSVM: func(sys System, p Params) (Result, error) {
				return SparseMMXthreads(sys.CCSVM, p.N, p.Density, p.Seed)
			},
			SystemCPU: func(sys System, p Params) (Result, error) {
				return SparseMMCPU(sys.APU, p.N, p.Density, p.Seed)
			},
		},
	})
}

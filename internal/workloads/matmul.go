package workloads

import (
	"fmt"

	"ccsvm/internal/apu"
	"ccsvm/internal/core"
	"ccsvm/internal/exec"
	"ccsvm/internal/mem"
	"ccsvm/internal/opencl"
	"ccsvm/internal/sim"
	"ccsvm/internal/xthreads"
)

// MatMulXthreads runs dense matrix multiply on the CCSVM machine: the CPU
// launches one task whose threads each compute a grid-strided set of output
// elements, then waits on per-thread done flags (Figure 5's CCSVM/xthreads
// series). The measured region is the offload: launch through completion.
func MatMulXthreads(cfg core.Config, n int, seed int64) (Result, error) {
	rng := inputRand(seed)
	defer inputRands.Put(rng)
	a := randomMatrix(rng, n)
	b := randomMatrix(rng, n)
	want := matMulRef(a, b, n)

	m := core.NewMachine(cfg)
	defer m.Shutdown()
	// One thread per output row (grid-strided if the matrix is larger than
	// the chip's thread contexts): enough parallelism to fill the MTTOP cores
	// while giving each thread a row's worth of work to amortize its launch.
	threads := threadCountFor(n, cfg.TotalMTTOPThreadContexts())

	// Inputs already live in the process's shared virtual memory — that is
	// the whole point of CCSVM: no staging copies are needed.
	aVA := m.Alloc(uint64(4 * n * n))
	bVA := m.Alloc(uint64(4 * n * n))
	cVA := m.Alloc(uint64(4 * n * n))
	for i := 0; i < n*n; i++ {
		m.MemWriteUint32(aVA+mem.VAddr(4*i), uint32(a[i]))
		m.MemWriteUint32(bVA+mem.VAddr(4*i), uint32(b[i]))
	}

	kernel := m.RegisterKernel(func(ctx *xthreads.MTTOPContext) {
		var args [6]uint64
		kernelArgs(ctx, args[:])
		aPtr, bPtr, cPtr, done := mem.VAddr(args[0]), mem.VAddr(args[1]), mem.VAddr(args[2]), mem.VAddr(args[3])
		size, nThreads := int(args[4]), int(args[5])
		b := ctx.Batch()
		for i := ctx.TID(); i < size; i += nThreads {
			for j := 0; j < size; j++ {
				sum := matMulDot(b, aPtr, bPtr, size, i, j)
				// The store goes out with the next element's loads.
				b.Store32(cPtr+mem.VAddr(4*(i*size+j)), sum)
			}
		}
		b.Run()
		ctx.SignalSlot(done, 0)
	})

	var offload sim.Duration
	_, err := m.RunProgram(func(ctx *xthreads.CPUContext) {
		done := ctx.Malloc(uint64(4 * threads))
		args := ctx.Malloc(48)
		ctx.InitConditions(done, 0, threads-1, xthreads.CondIdle)
		ctx.Store64(args+0, uint64(aVA))
		ctx.Store64(args+8, uint64(bVA))
		ctx.Store64(args+16, uint64(cVA))
		ctx.Store64(args+24, uint64(done))
		ctx.Store64(args+32, uint64(n))
		ctx.Store64(args+40, uint64(threads))
		start := ctx.Now()
		ctx.CreateMThreads(kernel, args, 0, threads-1)
		ctx.Wait(done, 0, threads-1)
		offload = ctx.Now().Sub(start)
	})
	if err != nil {
		return Result{}, err
	}
	for i := 0; i < n*n; i++ {
		if got := int32(m.MemReadUint32(cVA + mem.VAddr(4*i))); got != want[i] {
			return Result{}, fmt.Errorf("matmul xthreads: element %d = %d, want %d", i, got, want[i])
		}
	}
	return Result{Label: "CCSVM/xthreads", Time: offload, DRAMAccesses: m.DRAMAccesses(), Checked: true, Metrics: m.Metrics()}, nil
}

// MatMulCPU runs the single-threaded CPU version on one APU CPU core — the
// common baseline every figure normalizes against.
func MatMulCPU(cfg apu.Config, n int, seed int64) (Result, error) {
	rng := inputRand(seed)
	defer inputRands.Put(rng)
	a := randomMatrix(rng, n)
	b := randomMatrix(rng, n)
	want := matMulRef(a, b, n)

	m := apu.NewMachine(cfg)
	defer m.Shutdown()
	aVA := m.Malloc(uint64(4 * n * n))
	bVA := m.Malloc(uint64(4 * n * n))
	cVA := m.Malloc(uint64(4 * n * n))
	for i := 0; i < n*n; i++ {
		m.MemWriteUint32(aVA+mem.VAddr(4*i), uint32(a[i]))
		m.MemWriteUint32(bVA+mem.VAddr(4*i), uint32(b[i]))
	}
	var compute sim.Duration
	_, err := m.RunProgram(func(ctx *apu.HostContext) {
		start := ctx.Now()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var sum uint32
				for k := 0; k < n; k++ {
					av := ctx.Load32(aVA + mem.VAddr(4*(i*n+k)))
					bv := ctx.Load32(bVA + mem.VAddr(4*(k*n+j)))
					sum += av * bv
				}
				ctx.Compute(int64(2 * n))
				ctx.Store32(cVA+mem.VAddr(4*(i*n+j)), sum)
			}
		}
		compute = ctx.Now().Sub(start)
	})
	if err != nil {
		return Result{}, err
	}
	for i := 0; i < n*n; i++ {
		if got := int32(m.MemReadUint32(cVA + mem.VAddr(4*i))); got != want[i] {
			return Result{}, fmt.Errorf("matmul cpu: element %d = %d, want %d", i, got, want[i])
		}
	}
	return Result{Label: "APU CPU core", Time: compute, DRAMAccesses: m.DRAMAccesses(), Checked: true, Metrics: m.Metrics()}, nil
}

// MatMulOpenCL runs the OpenCL version on the APU machine, following the
// structure of the paper's Figure 3 host program: create pinned buffers, map
// them, copy the application's input arrays in, unmap, launch one work-item
// per output element, wait, and map the result back. includeInit controls
// whether the one-time platform initialization and program build (JIT) are
// inside the measured region — Figure 5 plots both variants.
func MatMulOpenCL(cfg apu.Config, n int, seed int64, includeInit bool) (Result, error) {
	rng := inputRand(seed)
	defer inputRands.Put(rng)
	a := randomMatrix(rng, n)
	b := randomMatrix(rng, n)
	want := matMulRef(a, b, n)

	m := apu.NewMachine(cfg)
	defer m.Shutdown()
	cl := opencl.NewSession(m)

	// The application's own arrays (what the CPU produced earlier).
	aVA := m.Malloc(uint64(4 * n * n))
	bVA := m.Malloc(uint64(4 * n * n))
	outVA := m.Malloc(uint64(4 * n * n))
	for i := 0; i < n*n; i++ {
		m.MemWriteUint32(aVA+mem.VAddr(4*i), uint32(a[i]))
		m.MemWriteUint32(bVA+mem.VAddr(4*i), uint32(b[i]))
	}

	kernel := cl.CreateKernel(func(wi *opencl.WorkItemContext) {
		gid := wi.GlobalID()
		size := int(wi.Arg(3))
		i, j := gid/size, gid%size
		aPtr, bPtr, cPtr := wi.ArgPtr(0), wi.ArgPtr(1), wi.ArgPtr(2)
		wi.Store32(cPtr+mem.VAddr(4*gid), matMulDot(wi.Batch(), aPtr, bPtr, size, i, j))
	})

	var measured sim.Duration
	_, err := m.RunProgram(func(ctx *apu.HostContext) {
		if !includeInit {
			// Pay the one-time costs outside the measured window.
			cl.InitPlatform(ctx)
			cl.BuildProgram(ctx)
		}
		start := ctx.Now()
		cl.InitPlatform(ctx)
		cl.BuildProgram(ctx)
		bufA := cl.CreateBuffer(ctx, uint64(4*n*n))
		bufB := cl.CreateBuffer(ctx, uint64(4*n*n))
		bufC := cl.CreateBuffer(ctx, uint64(4*n*n))
		// Stage inputs: map, copy from the application arrays, unmap.
		pa := cl.EnqueueMapBuffer(ctx, bufA)
		pb := cl.EnqueueMapBuffer(ctx, bufB)
		for i := 0; i < n*n; i++ {
			ctx.Store32(pa+mem.VAddr(4*i), ctx.Load32(aVA+mem.VAddr(4*i)))
			ctx.Store32(pb+mem.VAddr(4*i), ctx.Load32(bVA+mem.VAddr(4*i)))
		}
		cl.EnqueueUnmapBuffer(ctx, bufA)
		cl.EnqueueUnmapBuffer(ctx, bufB)
		cl.EnqueueNDRangeKernel(ctx, kernel, n*n,
			uint64(bufA.Base), uint64(bufB.Base), uint64(bufC.Base), uint64(n))
		cl.Finish(ctx)
		// Read results back into the application's array.
		pc := cl.EnqueueMapBuffer(ctx, bufC)
		for i := 0; i < n*n; i++ {
			ctx.Store32(outVA+mem.VAddr(4*i), ctx.Load32(pc+mem.VAddr(4*i)))
		}
		cl.EnqueueUnmapBuffer(ctx, bufC)
		measured = ctx.Now().Sub(start)
	})
	if err != nil {
		return Result{}, err
	}
	for i := 0; i < n*n; i++ {
		if got := int32(m.MemReadUint32(outVA + mem.VAddr(4*i))); got != want[i] {
			return Result{}, fmt.Errorf("matmul opencl: element %d = %d, want %d", i, got, want[i])
		}
	}
	label := "APU/OpenCL (no init)"
	if includeInit {
		label = "APU/OpenCL (full)"
	}
	return Result{Label: label, Time: measured, DRAMAccesses: m.DRAMAccesses(), Checked: true, Metrics: m.Metrics()}, nil
}

// matMulDot runs the loads and the multiply-adds of output element (i, j)
// as one batch, behind any op already appended to b, and returns the
// element.
func matMulDot(b *exec.Batch, aPtr, bPtr mem.VAddr, size, i, j int) uint32 {
	first := b.Len()
	for k := 0; k < size; k++ {
		b.Load32(aPtr + mem.VAddr(4*(i*size+k)))
		b.Load32(bPtr + mem.VAddr(4*(k*size+j)))
	}
	b.Compute(int64(2 * size))
	b.Run()
	var sum uint32
	for k := 0; k < size; k++ {
		sum += b.Value32(first+2*k) * b.Value32(first+2*k+1)
	}
	return sum
}

func init() {
	Register(Workload{
		Name:            "matmul",
		Description:     "dense matrix multiply (Figures 5 and 9)",
		UsesIncludeInit: true,
		Runners: map[SystemKind]RunFunc{
			SystemCCSVM: func(sys System, p Params) (Result, error) {
				return MatMulXthreads(sys.CCSVM, p.N, p.Seed)
			},
			SystemCPU: func(sys System, p Params) (Result, error) {
				return MatMulCPU(sys.APU, p.N, p.Seed)
			},
			SystemOpenCL: func(sys System, p Params) (Result, error) {
				return MatMulOpenCL(sys.APU, p.N, p.Seed, p.IncludeInit)
			},
		},
	})
}

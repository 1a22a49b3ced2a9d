package workloads

import (
	"fmt"

	"ccsvm/internal/apu"
	"ccsvm/internal/core"
	"ccsvm/internal/mem"
	"ccsvm/internal/opencl"
	"ccsvm/internal/sim"
	"ccsvm/internal/xthreads"
)

// VectorAddXthreads is the paper's Figure 4 program: the xthreads version of
// vector addition, spawning one MTTOP thread per element and waiting on
// per-element done flags. It doubles as the repository's quickstart example.
func VectorAddXthreads(cfg core.Config, n int, seed int64) (Result, error) {
	rng := inputRand(seed)
	defer inputRands.Put(rng)
	v1 := make([]int32, n)
	v2 := make([]int32, n)
	for i := range v1 {
		v1[i] = int32(rng.Intn(1000))
		v2[i] = int32(rng.Intn(1000))
	}

	m := core.NewMachine(cfg)
	defer m.Shutdown()
	if n > cfg.TotalMTTOPThreadContexts() {
		return Result{}, fmt.Errorf("vectoradd: %d elements exceed %d MTTOP thread contexts", n, cfg.TotalMTTOPThreadContexts())
	}

	kernel := m.RegisterKernel(func(ctx *xthreads.MTTOPContext) {
		var args [4]uint64
		kernelArgs(ctx, args[:])
		v1p, v2p, sum, done := mem.VAddr(args[0]), mem.VAddr(args[1]), mem.VAddr(args[2]), mem.VAddr(args[3])
		tid := ctx.TID()
		b := ctx.Batch()
		a := b.Load32(v1p + mem.VAddr(4*tid))
		c := b.Load32(v2p + mem.VAddr(4*tid))
		b.Compute(1)
		b.Run()
		ctx.Store32(sum+mem.VAddr(4*tid), b.Value32(a)+b.Value32(c))
		ctx.SignalSlot(done, 0)
	})

	var measured sim.Duration
	var sumVA mem.VAddr
	_, err := m.RunProgram(func(ctx *xthreads.CPUContext) {
		v1p := ctx.Malloc(uint64(4 * n))
		v2p := ctx.Malloc(uint64(4 * n))
		sum := ctx.Malloc(uint64(4 * n))
		done := ctx.Malloc(uint64(4 * n))
		args := ctx.Malloc(32)
		sumVA = sum
		for i := 0; i < n; i++ {
			ctx.Store32(v1p+mem.VAddr(4*i), uint32(v1[i]))
			ctx.Store32(v2p+mem.VAddr(4*i), uint32(v2[i]))
			ctx.Store32(done+mem.VAddr(4*i), xthreads.CondIdle)
		}
		ctx.Store64(args+0, uint64(v1p))
		ctx.Store64(args+8, uint64(v2p))
		ctx.Store64(args+16, uint64(sum))
		ctx.Store64(args+24, uint64(done))
		start := ctx.Now()
		ctx.CreateMThreads(kernel, args, 0, n-1)
		ctx.Wait(done, 0, n-1)
		measured = ctx.Now().Sub(start)
	})
	if err != nil {
		return Result{}, err
	}
	for i := 0; i < n; i++ {
		if got := int32(m.MemReadUint32(sumVA + mem.VAddr(4*i))); got != v1[i]+v2[i] {
			return Result{}, fmt.Errorf("vectoradd xthreads: element %d = %d, want %d", i, got, v1[i]+v2[i])
		}
	}
	return Result{Label: "CCSVM/xthreads", Time: measured, DRAMAccesses: m.DRAMAccesses(), Checked: true, Metrics: m.Metrics()}, nil
}

// VectorAddOpenCL is the paper's Figure 3 program: the OpenCL version of
// vector addition on the APU baseline, with all the buffer and launch
// boilerplate the figure is making a point about.
func VectorAddOpenCL(cfg apu.Config, n int, seed int64, includeInit bool) (Result, error) {
	rng := inputRand(seed)
	defer inputRands.Put(rng)
	v1 := make([]int32, n)
	v2 := make([]int32, n)
	for i := range v1 {
		v1[i] = int32(rng.Intn(1000))
		v2[i] = int32(rng.Intn(1000))
	}

	m := apu.NewMachine(cfg)
	defer m.Shutdown()
	cl := opencl.NewSession(m)

	kernel := cl.CreateKernel(func(wi *opencl.WorkItemContext) {
		v1p, v2p, sum := wi.ArgPtr(0), wi.ArgPtr(1), wi.ArgPtr(2)
		tid := wi.GlobalID()
		a := wi.Load32(v1p + mem.VAddr(4*tid))
		b := wi.Load32(v2p + mem.VAddr(4*tid))
		wi.Compute(1)
		wi.Store32(sum+mem.VAddr(4*tid), a+b)
	})

	var measured sim.Duration
	var sumResults []int32
	_, err := m.RunProgram(func(ctx *apu.HostContext) {
		if !includeInit {
			cl.InitPlatform(ctx)
			cl.BuildProgram(ctx)
		}
		start := ctx.Now()
		cl.InitPlatform(ctx)
		cl.BuildProgram(ctx)
		bufA := cl.CreateBuffer(ctx, uint64(4*n))
		bufB := cl.CreateBuffer(ctx, uint64(4*n))
		bufC := cl.CreateBuffer(ctx, uint64(4*n))
		pa := cl.EnqueueMapBuffer(ctx, bufA)
		pb := cl.EnqueueMapBuffer(ctx, bufB)
		for i := 0; i < n; i++ {
			ctx.Store32(pa+mem.VAddr(4*i), uint32(v1[i]))
			ctx.Store32(pb+mem.VAddr(4*i), uint32(v2[i]))
		}
		cl.EnqueueUnmapBuffer(ctx, bufA)
		cl.EnqueueUnmapBuffer(ctx, bufB)
		cl.EnqueueNDRangeKernel(ctx, kernel, n,
			uint64(bufA.Base), uint64(bufB.Base), uint64(bufC.Base))
		cl.Finish(ctx)
		pc := cl.EnqueueMapBuffer(ctx, bufC)
		sumResults = make([]int32, n)
		for i := 0; i < n; i++ {
			sumResults[i] = int32(ctx.Load32(pc + mem.VAddr(4*i)))
		}
		cl.EnqueueUnmapBuffer(ctx, bufC)
		measured = ctx.Now().Sub(start)
	})
	if err != nil {
		return Result{}, err
	}
	for i := 0; i < n; i++ {
		if sumResults[i] != v1[i]+v2[i] {
			return Result{}, fmt.Errorf("vectoradd opencl: element %d = %d, want %d", i, sumResults[i], v1[i]+v2[i])
		}
	}
	label := "APU/OpenCL (no init)"
	if includeInit {
		label = "APU/OpenCL (full)"
	}
	return Result{Label: label, Time: measured, DRAMAccesses: m.DRAMAccesses(), Checked: true, Metrics: m.Metrics()}, nil
}

func init() {
	Register(Workload{
		Name:            "vectoradd",
		Description:     "vector add, the Figure 3/4 offload-cost comparison",
		UsesIncludeInit: true,
		Runners: map[SystemKind]RunFunc{
			SystemCCSVM: func(sys System, p Params) (Result, error) {
				return VectorAddXthreads(sys.CCSVM, p.N, p.Seed)
			},
			SystemOpenCL: func(sys System, p Params) (Result, error) {
				return VectorAddOpenCL(sys.APU, p.N, p.Seed, p.IncludeInit)
			},
		},
	})
}

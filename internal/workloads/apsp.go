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

// APSPXthreads runs all-pairs shortest path (Floyd–Warshall) on the CCSVM
// machine: one task is launched once, and the barrier required between
// iterations of the outermost loop is the cheap CPU–MTTOP barrier in shared
// memory — the paper's Figure 6 attributes CCSVM's advantage on this
// benchmark to exactly this (no per-phase relaunches).
func APSPXthreads(cfg core.Config, n int, seed int64) (Result, error) {
	rng := inputRand(seed)
	defer inputRands.Put(rng)
	adj := randomAdjacency(rng, n, 0.3)
	want := apspRef(adj, n)

	m := core.NewMachine(cfg)
	defer m.Shutdown()
	threads := threadCountFor(n, cfg.TotalMTTOPThreadContexts())

	distVA := m.Alloc(uint64(4 * n * n))
	for i := 0; i < n*n; i++ {
		m.MemWriteUint32(distVA+mem.VAddr(4*i), uint32(adj[i]))
	}

	kernel := m.RegisterKernel(func(ctx *xthreads.MTTOPContext) {
		var args [6]uint64
		kernelArgs(ctx, args[:])
		dist, barrier, sense, done := mem.VAddr(args[0]), mem.VAddr(args[1]), mem.VAddr(args[2]), mem.VAddr(args[3])
		size, nThreads := int(args[4]), int(args[5])
		b := ctx.Batch()
		for k := 0; k < size; k++ {
			for i := ctx.TID(); i < size; i += nThreads {
				apspRow(b, dist, size, k, i)
			}
			b.Run()
			// Every thread (and the CPU) must finish iteration k before any
			// thread starts iteration k+1.
			ctx.Barrier(barrier, 0, sense)
		}
		ctx.SignalSlot(done, 0)
	})

	var offload sim.Duration
	_, err := m.RunProgram(func(ctx *xthreads.CPUContext) {
		barrier := ctx.Malloc(uint64(4 * threads))
		sense := ctx.Malloc(4)
		done := ctx.Malloc(uint64(4 * threads))
		args := ctx.Malloc(48)
		ctx.InitConditions(barrier, 0, threads-1, 0)
		ctx.Store32(sense, 0)
		ctx.InitConditions(done, 0, threads-1, xthreads.CondIdle)
		ctx.Store64(args+0, uint64(distVA))
		ctx.Store64(args+8, uint64(barrier))
		ctx.Store64(args+16, uint64(sense))
		ctx.Store64(args+24, uint64(done))
		ctx.Store64(args+32, uint64(n))
		ctx.Store64(args+40, uint64(threads))
		start := ctx.Now()
		ctx.CreateMThreads(kernel, args, 0, threads-1)
		for k := 0; k < n; k++ {
			ctx.CPUMTTOPBarrier(barrier, 0, threads-1, sense)
		}
		ctx.Wait(done, 0, threads-1)
		offload = ctx.Now().Sub(start)
	})
	if err != nil {
		return Result{}, err
	}
	for i := 0; i < n*n; i++ {
		if got := int32(m.MemReadUint32(distVA + mem.VAddr(4*i))); got != want[i] {
			return Result{}, fmt.Errorf("apsp xthreads: element %d = %d, want %d", i, got, want[i])
		}
	}
	return Result{Label: "CCSVM/xthreads", Time: offload, DRAMAccesses: m.DRAMAccesses(), Checked: true, Metrics: m.Metrics()}, nil
}

// APSPCPU runs Floyd–Warshall single-threaded on one APU CPU core.
func APSPCPU(cfg apu.Config, n int, seed int64) (Result, error) {
	rng := inputRand(seed)
	defer inputRands.Put(rng)
	adj := randomAdjacency(rng, n, 0.3)
	want := apspRef(adj, n)

	m := apu.NewMachine(cfg)
	defer m.Shutdown()
	distVA := m.Malloc(uint64(4 * n * n))
	for i := 0; i < n*n; i++ {
		m.MemWriteUint32(distVA+mem.VAddr(4*i), uint32(adj[i]))
	}
	var compute sim.Duration
	_, err := m.RunProgram(func(ctx *apu.HostContext) {
		start := ctx.Now()
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				dik := int32(ctx.Load32(distVA + mem.VAddr(4*(i*n+k))))
				for j := 0; j < n; j++ {
					dkj := int32(ctx.Load32(distVA + mem.VAddr(4*(k*n+j))))
					dij := int32(ctx.Load32(distVA + mem.VAddr(4*(i*n+j))))
					ctx.Compute(2)
					if dik+dkj < dij {
						ctx.Store32(distVA+mem.VAddr(4*(i*n+j)), uint32(dik+dkj))
					}
				}
			}
		}
		compute = ctx.Now().Sub(start)
	})
	if err != nil {
		return Result{}, err
	}
	for i := 0; i < n*n; i++ {
		if got := int32(m.MemReadUint32(distVA + mem.VAddr(4*i))); got != want[i] {
			return Result{}, fmt.Errorf("apsp cpu: element %d = %d, want %d", i, got, want[i])
		}
	}
	return Result{Label: "APU CPU core", Time: compute, DRAMAccesses: m.DRAMAccesses(), Checked: true, Metrics: m.Metrics()}, nil
}

// APSPOpenCL runs Floyd–Warshall on the APU with OpenCL. The outer-loop
// barrier forces one kernel launch plus one clFinish per iteration, which is
// exactly the synchronization cost that keeps the APU below the plain CPU in
// Figure 6.
func APSPOpenCL(cfg apu.Config, n int, seed int64, includeInit bool) (Result, error) {
	rng := inputRand(seed)
	defer inputRands.Put(rng)
	adj := randomAdjacency(rng, n, 0.3)
	want := apspRef(adj, n)

	m := apu.NewMachine(cfg)
	defer m.Shutdown()
	cl := opencl.NewSession(m)

	appVA := m.Malloc(uint64(4 * n * n))
	for i := 0; i < n*n; i++ {
		m.MemWriteUint32(appVA+mem.VAddr(4*i), uint32(adj[i]))
	}

	kernel := cl.CreateKernel(func(wi *opencl.WorkItemContext) {
		dist := wi.ArgPtr(0)
		size := int(wi.Arg(1))
		k := int(wi.Arg(2))
		i := wi.GlobalID()
		if i >= size {
			return
		}
		b := wi.Batch()
		apspRow(b, dist, size, k, i)
		b.Run()
	})

	var measured sim.Duration
	_, err := m.RunProgram(func(ctx *apu.HostContext) {
		if !includeInit {
			cl.InitPlatform(ctx)
			cl.BuildProgram(ctx)
		}
		start := ctx.Now()
		cl.InitPlatform(ctx)
		cl.BuildProgram(ctx)
		buf := cl.CreateBuffer(ctx, uint64(4*n*n))
		p := cl.EnqueueMapBuffer(ctx, buf)
		for i := 0; i < n*n; i++ {
			ctx.Store32(p+mem.VAddr(4*i), ctx.Load32(appVA+mem.VAddr(4*i)))
		}
		cl.EnqueueUnmapBuffer(ctx, buf)
		for k := 0; k < n; k++ {
			cl.EnqueueNDRangeKernel(ctx, kernel, n, uint64(buf.Base), uint64(n), uint64(k))
			cl.Finish(ctx)
		}
		pOut := cl.EnqueueMapBuffer(ctx, buf)
		for i := 0; i < n*n; i++ {
			ctx.Store32(appVA+mem.VAddr(4*i), ctx.Load32(pOut+mem.VAddr(4*i)))
		}
		cl.EnqueueUnmapBuffer(ctx, buf)
		measured = ctx.Now().Sub(start)
	})
	if err != nil {
		return Result{}, err
	}
	for i := 0; i < n*n; i++ {
		if got := int32(m.MemReadUint32(appVA + mem.VAddr(4*i))); got != want[i] {
			return Result{}, fmt.Errorf("apsp opencl: element %d = %d, want %d", i, got, want[i])
		}
	}
	label := "APU/OpenCL (no init)"
	if includeInit {
		label = "APU/OpenCL (full)"
	}
	return Result{Label: label, Time: measured, DRAMAccesses: m.DRAMAccesses(), Checked: true, Metrics: m.Metrics()}, nil
}

// apspRow relaxes row i of dist through vertex k. Each column's two loads
// and compare run as one batch, and the store an improvement needs goes out
// with the next column's batch; the caller runs b to issue the row's last
// one.
func apspRow(b *exec.Batch, dist mem.VAddr, size, k, i int) {
	ik := b.Load32(dist + mem.VAddr(4*(i*size+k)))
	var dik int32
	for j := 0; j < size; j++ {
		kj := b.Load32(dist + mem.VAddr(4*(k*size+j)))
		ij := b.Load32(dist + mem.VAddr(4*(i*size+j)))
		b.Compute(2)
		b.Run()
		if j == 0 {
			dik = int32(b.Value32(ik))
		}
		if d := dik + int32(b.Value32(kj)); d < int32(b.Value32(ij)) {
			b.Store32(dist+mem.VAddr(4*(i*size+j)), uint32(d))
		}
	}
}

func init() {
	Register(Workload{
		Name:            "apsp",
		Description:     "all-pairs shortest path, Floyd-Warshall (Figure 6)",
		UsesIncludeInit: true,
		Runners: map[SystemKind]RunFunc{
			SystemCCSVM: func(sys System, p Params) (Result, error) {
				return APSPXthreads(sys.CCSVM, p.N, p.Seed)
			},
			SystemCPU: func(sys System, p Params) (Result, error) {
				return APSPCPU(sys.APU, p.N, p.Seed)
			},
			SystemOpenCL: func(sys System, p Params) (Result, error) {
				return APSPOpenCL(sys.APU, p.N, p.Seed, p.IncludeInit)
			},
		},
	})
}

package workloads

import (
	"fmt"
	"math"
	"math/rand"

	"ccsvm/internal/apu"
	"ccsvm/internal/core"
	"ccsvm/internal/exec"
	"ccsvm/internal/mem"
	"ccsvm/internal/sim"
	"ccsvm/internal/xthreads"
)

// Barnes-Hut n-body (Section 5.3.1): the benchmark is built around a
// pointer-based quadtree that is rebuilt by the CPU every timestep (the
// sequential phase) and traversed by many threads to compute forces (the
// parallel phase). The frequent toggling between the two phases is what makes
// it a poor fit for loosely-coupled chips and a showcase for CCSVM.
//
// Bodies live in structure-of-arrays form in simulated memory; tree nodes are
// 2D quadtree nodes allocated with the running program's allocator and linked
// by virtual-address pointers.
const (
	bhTheta    = 0.5
	bhSteps    = 2
	bhDT       = 0.05
	bhSoften   = 0.05
	bhNodeSize = 96
	// Node field offsets (bytes).
	bhOffCX       = 0  // center x (float64)
	bhOffCY       = 8  // center y
	bhOffHalf     = 16 // half-width of the cell
	bhOffMass     = 24 // total mass
	bhOffComX     = 32 // center of mass x
	bhOffComY     = 40 // center of mass y
	bhOffBody     = 48 // body index + 1 (0 = internal or empty)
	bhOffChildren = 56 // four uint64 child pointers
)

// bhBodies is the layout of the body arrays in simulated memory.
type bhBodies struct {
	posX, posY, mass, velX, velY, accX, accY mem.VAddr
	n                                        int
}

func bhAllocBodies(alloc func(uint64) mem.VAddr, n int) bhBodies {
	size := uint64(8 * n)
	return bhBodies{
		posX: alloc(size), posY: alloc(size), mass: alloc(size),
		velX: alloc(size), velY: alloc(size), accX: alloc(size), accY: alloc(size),
		n: n,
	}
}

// bhRef is the host-side reference: it advances a copy of the bodies with the
// exact (O(n^2)) force computation for the same number of steps and is used
// only as a sanity check that the simulated runs conserve the system roughly
// (pointer-chasing approximation vs exact differ, so the check is loose).
type bhRefBody struct{ x, y, m, vx, vy float64 }

func bhRefInit(rng *rand.Rand, n int) []bhRefBody {
	bodies := make([]bhRefBody, n)
	for i := range bodies {
		bodies[i] = bhRefBody{
			x: rng.Float64()*2 - 1,
			y: rng.Float64()*2 - 1,
			m: 0.5 + rng.Float64(),
		}
	}
	return bodies
}

// bhBuildTree builds the quadtree over all bodies; it runs on whichever
// context is the sequential CPU thread. alloc is the running program's heap
// allocator. It returns the root node pointer.
func bhBuildTree(ctx *exec.Context, alloc func(uint64) mem.VAddr, b bhBodies) mem.VAddr {
	root := bhNewNode(ctx, alloc, 0, 0, 2.0)
	for i := 0; i < b.n; i++ {
		x := ctx.LoadFloat64(b.posX + mem.VAddr(8*i))
		y := ctx.LoadFloat64(b.posY + mem.VAddr(8*i))
		m := ctx.LoadFloat64(b.mass + mem.VAddr(8*i))
		bhInsert(ctx, alloc, root, i, x, y, m)
	}
	return root
}

func bhNewNode(ctx *exec.Context, alloc func(uint64) mem.VAddr, cx, cy, half float64) mem.VAddr {
	node := alloc(bhNodeSize)
	ctx.StoreFloat64(node+bhOffCX, cx)
	ctx.StoreFloat64(node+bhOffCY, cy)
	ctx.StoreFloat64(node+bhOffHalf, half)
	ctx.StoreFloat64(node+bhOffMass, 0)
	ctx.StoreFloat64(node+bhOffComX, 0)
	ctx.StoreFloat64(node+bhOffComY, 0)
	ctx.Store64(node+bhOffBody, 0)
	for q := 0; q < 4; q++ {
		ctx.Store64(node+bhOffChildren+mem.VAddr(8*q), 0)
	}
	return node
}

// bhInsert adds body i at (x, y) with mass m into the subtree rooted at node.
func bhInsert(ctx *exec.Context, alloc func(uint64) mem.VAddr, node mem.VAddr, i int, x, y, m float64) {
	// Guard against pathological co-located bodies: once cells are this
	// small, further splitting adds no accuracy.
	if ctx.LoadFloat64(node+bhOffHalf) < 1e-9 {
		return
	}
	// Update aggregate mass and center of mass on the way down.
	oldMass := ctx.LoadFloat64(node + bhOffMass)
	comX := ctx.LoadFloat64(node + bhOffComX)
	comY := ctx.LoadFloat64(node + bhOffComY)
	newMass := oldMass + m
	ctx.StoreFloat64(node+bhOffMass, newMass)
	ctx.StoreFloat64(node+bhOffComX, (comX*oldMass+x*m)/newMass)
	ctx.StoreFloat64(node+bhOffComY, (comY*oldMass+y*m)/newMass)
	ctx.Compute(12)

	bodyTag := ctx.Load64(node + bhOffBody)
	hasChildren := false
	for q := 0; q < 4; q++ {
		if ctx.Load64(node+bhOffChildren+mem.VAddr(8*q)) != 0 {
			hasChildren = true
			break
		}
	}
	if oldMass == 0 && !hasChildren {
		// Empty leaf: the body lives here.
		ctx.Store64(node+bhOffBody, uint64(i+1))
		return
	}
	if bodyTag != 0 {
		// Occupied leaf: push the resident body down before inserting.
		ctx.Store64(node+bhOffBody, 0)
		resident := int(bodyTag - 1)
		// The resident body's position is re-read from the body arrays by the
		// caller level; to keep the helper self-contained we rely on the
		// center of mass equalling its position (it was the only body).
		rx := comX
		ry := comY
		rm := oldMass
		bhInsertChild(ctx, alloc, node, resident, rx, ry, rm)
	}
	bhInsertChild(ctx, alloc, node, i, x, y, m)
}

func bhInsertChild(ctx *exec.Context, alloc func(uint64) mem.VAddr, node mem.VAddr, i int, x, y, m float64) {
	cx := ctx.LoadFloat64(node + bhOffCX)
	cy := ctx.LoadFloat64(node + bhOffCY)
	half := ctx.LoadFloat64(node + bhOffHalf)
	q := 0
	if x >= cx {
		q |= 1
	}
	if y >= cy {
		q |= 2
	}
	ctx.Compute(6)
	childPtr := mem.VAddr(ctx.Load64(node + bhOffChildren + mem.VAddr(8*q)))
	if childPtr == 0 {
		ncx, ncy := cx-half/2, cy-half/2
		if q&1 != 0 {
			ncx = cx + half/2
		}
		if q&2 != 0 {
			ncy = cy + half/2
		}
		childPtr = bhNewNode(ctx, alloc, ncx, ncy, half/2)
		ctx.Store64(node+bhOffChildren+mem.VAddr(8*q), uint64(childPtr))
	}
	bhInsert(ctx, alloc, childPtr, i, x, y, m)
}

// bhForce computes the approximate force on body i by traversing the tree
// (the pointer-chasing inner loop that runs on MTTOP cores or CPU threads).
// A node's fields and its children's pointers each load as one batch; a far
// node's force compute goes out with the next node's mass load.
func bhForce(ctx *exec.Context, root mem.VAddr, b bhBodies, i int) (float64, float64) {
	bt := ctx.Batch()
	x := bt.Load64(b.posX + mem.VAddr(8*i))
	y := bt.Load64(b.posY + mem.VAddr(8*i))
	bt.Run()
	xi, yi := bt.Float64(x), bt.Float64(y)
	var ax, ay float64
	// Explicit traversal stack held in host memory: the simulated pointer
	// chasing is in the batched loads below. The stack holds at most three
	// pending siblings per level, so trees up to 21 levels deep fit buf and
	// need no heap; deeper ones spill to it.
	var buf [64]mem.VAddr
	stack := append(buf[:0], root)
	for len(stack) > 0 {
		node := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		m := bt.Load64(node + bhOffMass)
		bt.Run()
		mass := bt.Float64(m)
		if mass == 0 {
			continue
		}
		cx := bt.Load64(node + bhOffComX)
		cy := bt.Load64(node + bhOffComY)
		h := bt.Load64(node + bhOffHalf)
		tag := bt.Load64(node + bhOffBody)
		bt.Compute(20)
		bt.Run()
		comX, comY, half, bodyTag := bt.Float64(cx), bt.Float64(cy), bt.Float64(h), bt.Value64(tag)
		dx := comX - xi
		dy := comY - yi
		dist := math.Sqrt(dx*dx + dy*dy + bhSoften)
		if bodyTag == uint64(i+1) {
			continue
		}
		if bodyTag != 0 || (2*half)/dist < bhTheta {
			f := mass / (dist * dist * dist)
			ax += f * dx
			ay += f * dy
			bt.Compute(10)
			continue
		}
		first := bt.Len()
		for q := 0; q < 4; q++ {
			bt.Load64(node + bhOffChildren + mem.VAddr(8*q))
		}
		bt.Run()
		for q := 0; q < 4; q++ {
			if child := mem.VAddr(bt.Value64(first + q)); child != 0 {
				stack = append(stack, child)
			}
		}
	}
	// The last node's force compute, if it was far.
	bt.Run()
	return ax, ay
}

// bhUpdate advances positions and velocities from the accumulated
// accelerations (the sequential CPU phase that follows the parallel phase).
func bhUpdate(ctx *exec.Context, b bhBodies) {
	for i := 0; i < b.n; i++ {
		ax := ctx.LoadFloat64(b.accX + mem.VAddr(8*i))
		ay := ctx.LoadFloat64(b.accY + mem.VAddr(8*i))
		vx := ctx.LoadFloat64(b.velX+mem.VAddr(8*i)) + ax*bhDT
		vy := ctx.LoadFloat64(b.velY+mem.VAddr(8*i)) + ay*bhDT
		ctx.StoreFloat64(b.velX+mem.VAddr(8*i), vx)
		ctx.StoreFloat64(b.velY+mem.VAddr(8*i), vy)
		ctx.StoreFloat64(b.posX+mem.VAddr(8*i), ctx.LoadFloat64(b.posX+mem.VAddr(8*i))+vx*bhDT)
		ctx.StoreFloat64(b.posY+mem.VAddr(8*i), ctx.LoadFloat64(b.posY+mem.VAddr(8*i))+vy*bhDT)
		ctx.Compute(16)
	}
}

func bhInitBodies(write func(va mem.VAddr, v float64), b bhBodies, init []bhRefBody) {
	for i, body := range init {
		write(b.posX+mem.VAddr(8*i), body.x)
		write(b.posY+mem.VAddr(8*i), body.y)
		write(b.mass+mem.VAddr(8*i), body.m)
		write(b.velX+mem.VAddr(8*i), 0)
		write(b.velY+mem.VAddr(8*i), 0)
		write(b.accX+mem.VAddr(8*i), 0)
		write(b.accY+mem.VAddr(8*i), 0)
	}
}

func bhCheck(read func(va mem.VAddr) float64, b bhBodies) error {
	for i := 0; i < b.n; i++ {
		x := read(b.posX + mem.VAddr(8*i))
		y := read(b.posY + mem.VAddr(8*i))
		if math.IsNaN(x) || math.IsNaN(y) || math.Abs(x) > 100 || math.Abs(y) > 100 {
			return fmt.Errorf("barnes-hut: body %d diverged to (%g, %g)", i, x, y)
		}
	}
	return nil
}

// BarnesHutXthreads runs the benchmark on the CCSVM machine: the CPU builds
// the tree and updates bodies, the MTTOP threads compute forces each step
// (Figure 7's CCSVM/xthreads series).
func BarnesHutXthreads(cfg core.Config, nBodies int, seed int64) (Result, error) {
	rng := inputRand(seed)
	defer inputRands.Put(rng)
	init := bhRefInit(rng, nBodies)

	m := core.NewMachine(cfg)
	defer m.Shutdown()
	threads := threadCountFor(nBodies, cfg.TotalMTTOPThreadContexts())

	bodies := bhAllocBodies(m.Alloc, nBodies)
	bhInitBodies(m.MemWriteFloat64, bodies, init)

	kernel := m.RegisterKernel(func(ctx *xthreads.MTTOPContext) {
		var args [11]uint64
		kernelArgs(ctx, args[:])
		root, done, nThreads := mem.VAddr(args[0]), mem.VAddr(args[1]), int(args[2])
		b := bhBodies{
			posX: mem.VAddr(args[3]), posY: mem.VAddr(args[4]),
			mass: mem.VAddr(args[5]), velX: mem.VAddr(args[6]),
			velY: mem.VAddr(args[7]), accX: mem.VAddr(args[8]),
			accY: mem.VAddr(args[9]), n: int(args[10]),
		}
		for i := ctx.TID(); i < b.n; i += nThreads {
			ax, ay := bhForce(ctx.Context, root, b, i)
			ctx.StoreFloat64(b.accX+mem.VAddr(8*i), ax)
			ctx.StoreFloat64(b.accY+mem.VAddr(8*i), ay)
		}
		ctx.SignalSlot(done, 0)
	})

	var measured sim.Duration
	_, err := m.RunProgram(func(ctx *xthreads.CPUContext) {
		done := ctx.Malloc(uint64(4 * threads))
		args := ctx.Malloc(88)
		start := ctx.Now()
		for step := 0; step < bhSteps; step++ {
			// Sequential phase: rebuild the tree.
			root := bhBuildTree(ctx.Context, ctx.Malloc, bodies)
			ctx.InitConditions(done, 0, threads-1, xthreads.CondIdle)
			ctx.Store64(args+0, uint64(root))
			ctx.Store64(args+8, uint64(done))
			ctx.Store64(args+16, uint64(threads))
			ctx.Store64(args+24, uint64(bodies.posX))
			ctx.Store64(args+32, uint64(bodies.posY))
			ctx.Store64(args+40, uint64(bodies.mass))
			ctx.Store64(args+48, uint64(bodies.velX))
			ctx.Store64(args+56, uint64(bodies.velY))
			ctx.Store64(args+64, uint64(bodies.accX))
			ctx.Store64(args+72, uint64(bodies.accY))
			ctx.Store64(args+80, uint64(bodies.n))
			// Parallel phase: offload force computation to the MTTOP cores.
			ctx.CreateMThreads(kernel, args, 0, threads-1)
			ctx.Wait(done, 0, threads-1)
			// Sequential phase: integrate.
			bhUpdate(ctx.Context, bodies)
		}
		measured = ctx.Now().Sub(start)
	})
	if err != nil {
		return Result{}, err
	}
	if err := bhCheck(m.MemReadFloat64, bodies); err != nil {
		return Result{}, err
	}
	return Result{Label: "CCSVM/xthreads", Time: measured, DRAMAccesses: m.DRAMAccesses(), Checked: true, Metrics: m.Metrics()}, nil
}

// BarnesHutCPU runs the whole benchmark single-threaded on one APU CPU core
// (Figure 7's "AMD CPU core" baseline).
func BarnesHutCPU(cfg apu.Config, nBodies int, seed int64) (Result, error) {
	return barnesHutHost(cfg, nBodies, seed, 1)
}

// BarnesHutPthreads runs the benchmark with the force phase split across the
// four APU CPU cores, the pthreads baseline of Figure 7.
func BarnesHutPthreads(cfg apu.Config, nBodies int, seed int64) (Result, error) {
	return barnesHutHost(cfg, nBodies, seed, cfg.NumCPUs)
}

func barnesHutHost(cfg apu.Config, nBodies int, seed int64, nThreads int) (Result, error) {
	rng := inputRand(seed)
	defer inputRands.Put(rng)
	init := bhRefInit(rng, nBodies)

	m := apu.NewMachine(cfg)
	defer m.Shutdown()
	bodies := bhAllocBodies(m.Malloc, nBodies)
	write := func(va mem.VAddr, v float64) { m.MemWriteUint64(va, math.Float64bits(v)) }
	bhInitBodies(write, bodies, init)

	// Shared coordination cells for the pthreads version.
	rootCell := m.Malloc(8)
	phaseCell := m.Malloc(4)
	doneCount := m.Malloc(4)

	var measured sim.Duration
	funcs := make([]apu.HostFunc, nThreads)
	// Worker threads (IDs 1..nThreads-1) wait for each phase announcement and
	// compute forces for their stride of bodies.
	for w := 1; w < nThreads; w++ {
		w := w
		funcs[w] = func(ctx *apu.HostContext) {
			for step := 1; step <= bhSteps; step++ {
				ctx.Poll32(phaseCell, exec.UntilAtLeast, uint32(step), 64)
				root := mem.VAddr(ctx.Load64(rootCell))
				for i := w; i < bodies.n; i += nThreads {
					ax, ay := bhForce(ctx.Context, root, bodies, i)
					ctx.StoreFloat64(bodies.accX+mem.VAddr(8*i), ax)
					ctx.StoreFloat64(bodies.accY+mem.VAddr(8*i), ay)
				}
				ctx.AtomicAdd32(doneCount, 1)
			}
		}
	}
	funcs[0] = func(ctx *apu.HostContext) {
		ctx.Store32(phaseCell, 0)
		ctx.Store32(doneCount, 0)
		start := ctx.Now()
		for step := 1; step <= bhSteps; step++ {
			root := bhBuildTree(ctx.Context, ctx.Malloc, bodies)
			ctx.Store64(rootCell, uint64(root))
			ctx.Store32(phaseCell, uint32(step))
			for i := 0; i < bodies.n; i += nThreads {
				ax, ay := bhForce(ctx.Context, root, bodies, i)
				ctx.StoreFloat64(bodies.accX+mem.VAddr(8*i), ax)
				ctx.StoreFloat64(bodies.accY+mem.VAddr(8*i), ay)
			}
			ctx.Poll32(doneCount, exec.UntilAtLeast, uint32((nThreads-1)*step), 64)
			bhUpdate(ctx.Context, bodies)
		}
		measured = ctx.Now().Sub(start)
	}

	_, err := m.RunThreads(funcs)
	if err != nil {
		return Result{}, err
	}
	read := func(va mem.VAddr) float64 { return math.Float64frombits(m.MemReadUint64(va)) }
	if err := bhCheck(read, bodies); err != nil {
		return Result{}, err
	}
	label := "APU CPU core"
	if nThreads > 1 {
		label = fmt.Sprintf("APU pthreads x%d", nThreads)
	}
	return Result{Label: label, Time: measured, DRAMAccesses: m.DRAMAccesses(), Checked: true, Metrics: m.Metrics()}, nil
}

func init() {
	Register(Workload{
		Name:        "barneshut",
		Description: "Barnes-Hut n-body, pointer-chasing quadtree (Figure 7)",
		Runners: map[SystemKind]RunFunc{
			SystemCCSVM: func(sys System, p Params) (Result, error) {
				return BarnesHutXthreads(sys.CCSVM, p.N, p.Seed)
			},
			SystemCPU: func(sys System, p Params) (Result, error) {
				return BarnesHutCPU(sys.APU, p.N, p.Seed)
			},
			SystemPthreads: func(sys System, p Params) (Result, error) {
				return BarnesHutPthreads(sys.APU, p.N, p.Seed)
			},
		},
	})
}

package main

import (
	"fmt"
	"time"

	"github.com/hydrogen-sim/hydrogen/internal/caches"
	"github.com/hydrogen-sim/hydrogen/internal/memory/dram"
	"github.com/hydrogen-sim/hydrogen/internal/memory/hybrid"
	"github.com/hydrogen-sim/hydrogen/internal/policy"
	"github.com/hydrogen-sim/hydrogen/internal/sim"
	"github.com/hydrogen-sim/hydrogen/internal/system"
	"github.com/hydrogen-sim/hydrogen/internal/trace"
	"github.com/hydrogen-sim/hydrogen/internal/workloads"
)

// The kernels drive one simulator layer alone through its public API,
// with inputs taken from the workload's own trace profiles, and report
// host nanoseconds per unit of that layer's work. A traced sim run
// executes them after the measured passes.

const kernelOps = 400_000

// kernelSink keeps the compiler from discarding a kernel's loop body.
var kernelSink uint64

// timeKernel runs fn under a span and returns host ns per unit.
func timeKernel(e *env, name string, units int, fn func()) float64 {
	op := e.rec.op()
	id := e.rec.begin(name+".kernel", op, -1)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	e.rec.end(id)
	return float64(d.Nanoseconds()) / float64(units)
}

// profileGens builds the first CPU core's and the first GPU subslice's
// trace generators exactly as system.New does for cfg.
func profileGens(cfg system.Config) (cpu, gpu trace.Generator, err error) {
	fastCap := cfg.Hybrid.FastCapacityBytes
	cp, err := workloads.CPUProfile(cfg.CPUProfiles[0], fastCap)
	if err != nil {
		return nil, nil, err
	}
	gp, err := workloads.GPUProfile(cfg.GPUProfile, fastCap)
	if err != nil {
		return nil, nil, err
	}
	n := uint64(cfg.GPU.Subslices)
	if n == 0 {
		n = 6
	}
	gp.Region /= n
	gp.Hot /= n
	gpuBase := (cp.Footprint + 2<<20) &^ (1<<20 - 1)
	cpu = trace.NewPaged(trace.NewCPU(cp, 0, cfg.Seed), cfg.Seed+1)
	gpu = trace.NewPaged(trace.NewGPU(gp, gpuBase, cfg.Seed+1_000_003), cfg.Seed+2_000_029)
	return cpu, gpu, nil
}

func simKernels(e *env, cfg system.Config, events uint64) error {
	l := e.layer

	// The event engine alone: the run's event count of no-op events at
	// the delays the components use (next cycle, L2, LLC, DRAM, epoch-ish).
	delays := [...]uint64{1, 9, 38, 200, 5000}
	l["sim.kernel_ns_per_event"] = timeKernel(e, "sim", int(events), func() {
		eng := sim.New()
		left := events
		var fire func(ctx, now uint64)
		fire = func(ctx, now uint64) {
			if left == 0 {
				return
			}
			left--
			eng.ScheduleCtx(now+delays[ctx%uint64(len(delays))], fire, ctx+1)
		}
		for i := uint64(0); i < 64 && left > 0; i++ {
			left--
			eng.ScheduleCtx(delays[i%uint64(len(delays))], fire, i)
		}
		eng.Run()
		kernelSink += eng.Steps()
	})

	cpuGen, gpuGen, err := profileGens(cfg)
	if err != nil {
		return err
	}
	drain := func(g trace.Generator) func() {
		return func() {
			var s uint64
			for i := 0; i < kernelOps; i++ {
				op, _ := g.Next()
				s += op.Addr
			}
			kernelSink += s
		}
	}
	l["trace.cpu_ns_per_op"] = timeKernel(e, "trace.cpu", kernelOps, drain(cpuGen))
	l["trace.gpu_ns_per_op"] = timeKernel(e, "trace.gpu", kernelOps, drain(gpuGen))

	// An LLC-shaped cache on the CPU stream: Access, and Fill on a miss.
	llc := caches.New(cfg.LLC)
	l["caches.ns_per_access"] = timeKernel(e, "caches", kernelOps, func() {
		for i := 0; i < kernelOps; i++ {
			op, _ := cpuGen.Next()
			if !llc.Access(op.Addr, op.Write) {
				llc.Fill(op.Addr, op.Write)
			}
		}
		kernelSink += llc.Stats().Hits
	})

	l["dram.hbm_ns_per_req"] = timeKernel(e, "dram.hbm", kernelOps, func() { channelKernel(cfg.Fast) })
	l["dram.ddr_ns_per_req"] = timeKernel(e, "dram.ddr", kernelOps, func() { channelKernel(cfg.Slow) })

	for _, k := range []struct {
		metric string
		mode   hybrid.Mode
	}{{"hybrid.ns_per_access", hybrid.ModeCache}, {"hybrid.flat_ns_per_access", hybrid.ModeFlat}} {
		run, err := controllerKernel(cfg, k.mode)
		if err != nil {
			return err
		}
		l[k.metric] = timeKernel(e, k.metric[:len(k.metric)-len("_ns_per_access")], kernelOps, run)
	}

	// Victim choice plus the migration gate, per call, on a full set.
	env := cfg.Env()
	hyd, err := system.HydrogenFactory(system.HydrogenOptions{Tokens: true, TokIdx: 3, Climb: true})(env)
	if err != nil {
		return err
	}
	l["core.victim_ns"] = timeKernel(e, "core", kernelOps, func() { victimKernel(hyd, env) })
	l["policy.baseline_victim_ns"] = timeKernel(e, "policy", kernelOps, func() {
		victimKernel(policy.NewBaseline(env.Groups, env.Assoc), env)
	})
	return nil
}

// channelKernel pushes kernelOps requests through one channel in
// 64-deep batches that mix row hits with bank and row conflicts.
func channelKernel(cfg dram.Config) {
	eng := sim.New()
	ch := dram.NewChannel(eng, &cfg, 0)
	var done uint64
	cb := func(uint64) { done++ }
	addr := uint64(0)
	for i := 0; i < kernelOps; i += 64 {
		for j := 0; j < 64; j++ {
			addr += 64
			if j&3 == 3 {
				addr += cfg.RowBytes * 7
			}
			ch.Enqueue(dram.Request{Addr: addr, Bytes: 64, Write: j&7 == 0, Done: cb})
		}
		eng.Run()
	}
	kernelSink += done
}

// controllerKernel wires the hybrid controller, both tiers and the
// Hydrogen policy — no cores, no SRAM caches — and returns a function
// that drives kernelOps accesses through it, alternating the CPU and
// GPU trace streams with at most 64 in flight.
func controllerKernel(cfg system.Config, mode hybrid.Mode) (func(), error) {
	cfg.Hybrid.Mode = mode
	eng := sim.New()
	fast, err := dram.NewTier(eng, cfg.Fast)
	if err != nil {
		return nil, err
	}
	slow, err := dram.NewTier(eng, cfg.Slow)
	if err != nil {
		return nil, err
	}
	pol, err := system.HydrogenFactory(system.HydrogenOptions{Tokens: true, TokIdx: 3, Climb: true})(cfg.Env())
	if err != nil {
		return nil, err
	}
	ctl, err := hybrid.New(eng, cfg.Hybrid, fast, slow, pol)
	if err != nil {
		return nil, err
	}
	cpuGen, gpuGen, err := profileGens(cfg)
	if err != nil {
		return nil, err
	}
	return func() {
		inflight, issued, completed := 0, 0, 0
		done := func(uint64) { inflight--; completed++ }
		for completed < kernelOps {
			for inflight < 64 && issued < kernelOps {
				g, src := cpuGen, dram.SourceCPU
				if issued&1 == 1 {
					g, src = gpuGen, dram.SourceGPU
				}
				op, _ := g.Next()
				ctl.Access(op.Addr&^63, op.Write, src, done)
				inflight++
				issued++
			}
			if !eng.Step() {
				panic(fmt.Sprintf("hybrid kernel: engine idle with %d accesses in flight", inflight))
			}
		}
		kernelSink += uint64(completed)
	}, nil
}

func victimKernel(pol hybrid.Policy, env system.PolicyEnv) {
	ways := make([]hybrid.WayView, env.Assoc)
	for w := range ways {
		ways[w] = hybrid.WayView{Valid: true, Dirty: w&1 == 0, LastUse: uint64(w * 17), Tag: uint64(w), Src: dram.Source(w & 1)}
	}
	var picked uint64
	for i := 0; i < kernelOps; i++ {
		set := uint64(i) % env.NumSets
		src := dram.Source(i & 1)
		ways[i%len(ways)].LastUse = uint64(i)
		if v := pol.Victim(set, ways, src); v >= 0 && pol.AllowMigration(src, 1, uint64(i)*8) {
			picked++
		}
	}
	kernelSink += picked
}

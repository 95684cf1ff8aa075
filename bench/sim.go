package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"time"

	hydrogen "github.com/hydrogen-sim/hydrogen"
	"github.com/hydrogen-sim/hydrogen/internal/memory/dram"
	"github.com/hydrogen-sim/hydrogen/internal/memory/hybrid"
	"github.com/hydrogen-sim/hydrogen/internal/system"
	"github.com/hydrogen-sim/hydrogen/internal/workloads"
)

// simCycles is the length of one simulation: three of system.Quick()'s
// 400 k-cycle epochs, so the adaptive policy gets to move, and short
// enough that a run of -seconds 10 holds four passes over the designs.
const simCycles = 1_200_000

type simDesign struct {
	label  string // name in the report
	design string
	flat   bool // Hybrid.Mode = ModeFlat: the same controller, swapping
}

// simSpec is one simulator workload: a combo and the design list one
// pass runs.
type simSpec struct {
	combo   string
	designs []simDesign
}

var (
	baselineDesign = simDesign{label: "Baseline", design: system.DesignBaseline}
	hydrogenDesign = simDesign{label: "Hydrogen", design: system.DesignHydrogen}
	flatDesign     = simDesign{label: "Hydrogen-flat", design: system.DesignHydrogen, flat: true}
)

func runSimBW(e *env) error {
	return runSim(e, simSpec{combo: "C1", designs: []simDesign{baselineDesign, hydrogenDesign}})
}

func runSimMig(e *env) error {
	return runSim(e, simSpec{combo: "C5", designs: []simDesign{baselineDesign, hydrogenDesign, flatDesign}})
}

// config is the generated input of one simulation: the seed picks the
// trace streams, everything else is the workload's definition.
func (sp simSpec) config(seed int64, d simDesign) (system.Config, error) {
	combo, err := workloads.ComboByID(sp.combo)
	if err != nil {
		return system.Config{}, err
	}
	cfg := system.Quick()
	cfg.Cycles = simCycles
	cfg.Seed = seed
	cfg.CPUProfiles = combo.CPUAssignment(cfg.Cores)
	cfg.GPUProfile = combo.GPU
	if d.flat {
		cfg.Hybrid.Mode = hybrid.ModeFlat
	}
	return cfg, nil
}

// simRun is what one simulation produced and what it cost the host.
type simRun struct {
	res                       system.Results
	steps                     uint64
	capWays, bwGroups, tokIdx int
	buildS, runS, encodeS     float64
	fingerprint               [32]byte
}

func (r simRun) hostSeconds() float64 { return r.buildS + r.runS + r.encodeS }

// simulate runs one design start to finish the way a sweep driver
// does — resolve the design, build the machine, run it, encode the
// results — with a span around each call.
func simulate(e *env, sp simSpec, d simDesign, simParallel int) (simRun, error) {
	var out simRun
	cfg, err := sp.config(e.seed, d)
	if err != nil {
		return out, err
	}
	cfg.SimParallel = simParallel
	op := e.rec.op()
	root := e.rec.begin("sim."+d.label, op, -1)
	defer e.rec.end(root)

	t0 := time.Now()
	id := e.rec.begin("system.apply_design", op, root)
	factory, err := system.ApplyDesign(&cfg, d.design)
	e.rec.end(id)
	if err != nil {
		return out, err
	}
	id = e.rec.begin("system.new", op, root)
	sys, err := system.New(cfg, factory)
	e.rec.end(id)
	if err != nil {
		return out, err
	}
	t1 := time.Now()
	id = e.rec.begin("system.run", op, root)
	out.res = sys.Run()
	e.rec.end(id)
	t2 := time.Now()
	id = e.rec.begin("results.encode", op, root)
	data, err := json.Marshal(out.res)
	e.rec.end(id)
	if err != nil {
		return out, err
	}
	t3 := time.Now()

	out.buildS, out.runS, out.encodeS = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds()
	out.steps = sys.Engine().Steps()
	out.capWays, out.bwGroups, out.tokIdx, _ = sys.OperatingPoint()
	// The same hash fingerprint_test.go takes: every field of Results.
	out.fingerprint = sha256.Sum256([]byte(fmt.Sprintf("%+v", out.res)))
	if len(data) == 0 || out.res.Cycles != simCycles {
		return out, fmt.Errorf("%s: empty or truncated results", d.label)
	}
	return out, nil
}

// simPhase is one measured phase: whole passes over the design list
// until the time is up.
type simPhase struct {
	rates     []float64 // simulated Mcycles per host second, per pass
	opSeconds []float64 // host seconds per simulation
	last      map[string]simRun
	allocKB   float64 // per simulation
	cpuUS     float64 // per simulation
}

func (sp simSpec) measure(e *env, d time.Duration, first map[string][32]byte) simPhase {
	ph := simPhase{last: map[string]simRun{}}
	m := startMeter()
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < d; pass++ {
		var host float64
		for _, dsg := range sp.designs {
			r, err := simulate(e, sp, dsg, 0)
			if err != nil {
				e.tally.fail("pass %d %s: %v", pass, dsg.label, err)
				continue
			}
			// Same seed, same design: every pass must reproduce the
			// first one bit for bit.
			if fp, seen := first[dsg.label]; seen && fp != r.fingerprint {
				e.tally.fail("pass %d %s: fingerprint %x differs from the first pass's %x", pass, dsg.label, r.fingerprint[:8], fp[:8])
			} else {
				first[dsg.label] = r.fingerprint
				e.tally.ok()
			}
			host += r.hostSeconds()
			ph.opSeconds = append(ph.opSeconds, r.hostSeconds())
			ph.last[dsg.label] = r
		}
		ph.rates = append(ph.rates, float64(len(sp.designs))*simCycles/1e6/host)
	}
	ph.allocKB, ph.cpuUS = m.perOp(len(ph.opSeconds))
	return ph
}

func runSim(e *env, sp simSpec) error {
	labels := make([]string, len(sp.designs))
	for i, d := range sp.designs {
		labels[i] = d.label
	}
	e.params["combo"], e.params["designs"], e.params["cycles"], e.params["config"] = sp.combo, labels, simCycles, "system.Quick()"

	// Set-up for a simulation is building every design's machine; it
	// is repeated often because one build is a few milliseconds.
	_, err := setupMedian(e, 15, func() (int, error) {
		for _, d := range sp.designs {
			cfg, err := sp.config(e.seed, d)
			if err != nil {
				return 0, err
			}
			factory, err := system.ApplyDesign(&cfg, d.design)
			if err != nil {
				return 0, err
			}
			if _, err := system.New(cfg, factory); err != nil {
				return 0, err
			}
		}
		return 0, nil
	}, func(int) {})
	if err != nil {
		return err
	}

	first := map[string][32]byte{}
	plain := sp.measure(e, e.measureFor(1), first)
	if len(plain.opSeconds) == 0 {
		return fmt.Errorf("no simulation succeeded: %v", e.tally.messages)
	}
	e.e2e["work_per_s"] = median(plain.rates)
	e.e2e["lat_p50_us"] = median(plain.opSeconds) * 1e6
	e.e2e["lat_tail_us"] = percentile(sortedCopy(plain.opSeconds), 100) * 1e6
	e.e2e["alloc_kb_per_op"] = plain.allocKB
	e.e2e["cpu_us_per_op"] = plain.cpuUS
	e.note("work_per_s: simulated Mcycles per host second over %v, median of %d passes %v", labels, len(plain.rates), fmtSeconds(plain.rates))
	e.note("lat_p50_us/lat_tail_us: host time of one simulation, median and slowest of %d (too few for a percentile)", len(plain.opSeconds))

	last := plain.last
	if e.traced {
		e.rec = newRecorder()
		traced := sp.measure(e, e.measureFor(1), first)
		last = traced.last
		e.layer["bench.trace_overhead_pct"] = 100 * (median(plain.rates) - median(traced.rates)) / median(plain.rates)
	}

	// Serial against two shards on the paper's design: results must be
	// bit-identical, and the host-time ratio is what PDES buys here.
	hyd, ok := last[hydrogenDesign.label]
	if !ok {
		return fmt.Errorf("no successful %s run to compare with", hydrogenDesign.label)
	}
	par, err := simulate(e, sp, hydrogenDesign, 2)
	switch {
	case err != nil:
		e.tally.fail("SimParallel=2: %v", err)
	case par.fingerprint != hyd.fingerprint:
		e.tally.fail("SimParallel=2 fingerprint %x differs from serial %x", par.fingerprint[:8], hyd.fingerprint[:8])
	default:
		e.tally.ok()
	}

	h := sha256.New()
	for _, d := range sp.designs {
		fp := first[d.label]
		h.Write(fp[:])
		e.note("fingerprint %s %x", d.label, fp)
	}
	sum := h.Sum(nil)
	e.note("system.fingerprint: %x", sum)
	if !e.traced {
		return nil
	}

	// Per-layer counts are those of the Hydrogen cache-mode run; every
	// one repeats exactly for a seed.
	base := last[baselineDesign.label]
	res := hyd.res
	l := e.layer
	l["system.build_ms"] = hyd.buildS * 1e3
	l["system.run_ms"] = hyd.runS * 1e3
	l["system.encode_us"] = hyd.encodeS * 1e6
	l["system.epochs"] = float64(len(res.Epochs))
	l["system.cpu_ipc"] = res.CPUIPC
	l["system.gpu_ipc"] = res.GPUIPC
	l["system.weighted_speedup"] = hydrogen.WeightedSpeedup(res, base.res, 12, 1)
	l["system.fingerprint"] = float64(binary.BigEndian.Uint64(append([]byte{0, 0}, sum[:6]...)))
	l["sim.events"] = float64(hyd.steps)
	l["sim.host_ns_per_event"] = hyd.runS * 1e9 / float64(hyd.steps)
	l["par.run_ms_2shards"] = par.runS * 1e3
	l["par.speedup_2shards"] = hyd.runS / par.runS
	l["par.identical"] = b2f(par.fingerprint == hyd.fingerprint)
	l["cpu.instrs"] = float64(res.CPUInstrs)
	l["gpu.instrs"] = float64(res.GPUInstrs)
	l["caches.llc_accesses"] = float64(res.LLC.Hits + res.LLC.Misses)
	l["caches.llc_hit_rate"] = res.LLC.HitRate()

	tier := func(prefix string, st dram.Stats, channels int) {
		reqs := float64(st.Reads + st.Writes)
		l["dram."+prefix+"_reqs"] = reqs
		l["dram."+prefix+"_row_hit_rate"] = ratio(float64(st.RowHits), float64(st.RowHits+st.RowMisses))
		l["dram."+prefix+"_queue_delay_cyc"] = ratio(float64(st.QueueDelaySum), reqs)
		l["dram."+prefix+"_bus_util"] = float64(st.BusBusyCycles) / (float64(res.Cycles) * float64(channels))
	}
	cfg, err := sp.config(e.seed, hydrogenDesign)
	if err != nil {
		return err
	}
	tier("fast", res.Fast, cfg.Fast.Channels)
	tier("slow", res.Slow, cfg.Slow.Channels)

	hs := res.Hybrid
	l["hybrid.demand"] = float64(hs.Demand[0] + hs.Demand[1])
	l["hybrid.fast_hit_rate_cpu"] = hs.HitRate(dram.SourceCPU)
	l["hybrid.fast_hit_rate_gpu"] = hs.HitRate(dram.SourceGPU)
	l["hybrid.migrations"] = float64(hs.Migrations[0] + hs.Migrations[1])
	l["hybrid.bypasses"] = float64(hs.Bypasses[0] + hs.Bypasses[1])
	l["hybrid.writebacks"] = float64(hs.Writebacks[0] + hs.Writebacks[1])
	l["hybrid.swaps"] = float64(hs.Swaps)
	l["hybrid.misplaced"] = float64(hs.Misplaced)
	l["hybrid.remap_hit_rate"] = ratio(float64(hs.RemapHits), float64(hs.RemapHits+hs.RemapMisses))
	l["hybrid.avg_latency_cyc_cpu"] = hs.AvgLatency(dram.SourceCPU)
	l["hybrid.avg_latency_cyc_gpu"] = hs.AvgLatency(dram.SourceGPU)
	l["core.final_cap"] = float64(hyd.capWays)
	l["core.final_bw"] = float64(hyd.bwGroups)
	l["core.final_tok"] = float64(hyd.tokIdx)
	gpu := dram.SourceGPU
	l["core.token_bypass_share"] = ratio(float64(hs.Bypasses[gpu]), float64(hs.Migrations[0]+hs.Migrations[1]+hs.Bypasses[0]+hs.Bypasses[1]))

	return simKernels(e, cfg, hyd.steps)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

package experiments

import (
	"fmt"

	"github.com/hydrogen-sim/hydrogen/internal/memory/dram"
	"github.com/hydrogen-sim/hydrogen/internal/system"
)

// Fig5Result holds the full Figure 5 (and Figure 6) dataset: per-combo,
// per-design results plus the baseline used for normalization.
type Fig5Result struct {
	Designs []string
	Combos  []string
	// Speedup[combo][design] is the weighted speedup over Baseline.
	Speedup map[string]map[string]float64
	// Raw[combo][design] keeps the underlying run results (used by the
	// energy figure and the analysis tooling).
	Raw map[string]map[string]system.Results
	// Weights used for the weighted speedup.
	WCPU, WGPU float64
}

// Fig5 reproduces "Fig. 5: Performance comparison between HAShCache,
// Profess, WayPart, and several Hydrogen variants", normalized to the
// no-partitioning baseline. Setting hbm3 reproduces Fig. 5(b), which
// swaps the fast tier for HBM3 with doubled bandwidth.
func Fig5(o Options, hbm3 bool) (*Fig5Result, error) {
	o.memoize()
	base := o.Base
	if hbm3 {
		base.Fast = dram.HBM3()
	}
	w := system.Canonical(base)

	combos, err := o.combos()
	if err != nil {
		return nil, err
	}
	designs := system.Designs()
	res := &Fig5Result{
		Designs: designs,
		Speedup: map[string]map[string]float64{},
		Raw:     map[string]map[string]system.Results{},
		WCPU:    w.WeightCPU, WGPU: w.WeightGPU,
	}
	for _, c := range combos {
		res.Combos = append(res.Combos, c.ID)
		res.Speedup[c.ID] = map[string]float64{}
		res.Raw[c.ID] = map[string]system.Results{}
	}

	type run struct {
		speedup float64
		raw     system.Results
	}
	nd := len(designs)
	runs, err := mapOrdered(o.parallelism(), len(combos)*nd, func(k int) (run, error) {
		c, d := combos[k/nd], designs[k%nd]
		s, r, err := o.speedup(base, named(d), c)
		if err != nil {
			return run{}, err
		}
		o.logf("fig5: %s %s done (cpu %.2f gpu %.2f)", c.ID, d, r.CPUIPC, r.GPUIPC)
		return run{s, r}, nil
	})
	if err != nil {
		return nil, err
	}
	for k, r := range runs {
		c, d := combos[k/nd].ID, designs[k%nd]
		res.Speedup[c][d], res.Raw[c][d] = r.speedup, r.raw
	}
	return res, nil
}

// GeomeanBy returns the geometric-mean speedup of one design across
// combos.
func (f *Fig5Result) GeomeanBy(design string) float64 {
	var xs []float64
	for _, c := range f.Combos {
		xs = append(xs, f.Speedup[c][design])
	}
	return Geomean(xs)
}

// HydrogenVsBest returns Hydrogen's geomean speedup relative to the best
// non-Hydrogen baseline design (the paper's headline 1.16x metric) and
// that design's name.
func (f *Fig5Result) HydrogenVsBest() (float64, string) {
	bestName, best := "", 0.0
	for _, d := range []string{system.DesignHAShCache, system.DesignProfess, system.DesignWayPart} {
		if g := f.GeomeanBy(d); g > best {
			best, bestName = g, d
		}
	}
	if best == 0 {
		return 0, ""
	}
	return f.GeomeanBy(system.DesignHydrogen) / best, bestName
}

// Table renders the speedup matrix (one row per combo, one column per
// design, plus the geomean row — the shape of the Fig. 5 bar groups).
func (f *Fig5Result) Table(title string) *Table {
	t := &Table{Title: title, Columns: append([]string{"combo"}, f.Designs...)}
	for _, c := range f.Combos {
		row := []string{c}
		for _, d := range f.Designs {
			row = append(row, fmt.Sprintf("%.3f", f.Speedup[c][d]))
		}
		t.Rows = append(t.Rows, row)
	}
	gm := []string{"geomean"}
	for _, d := range f.Designs {
		gm = append(gm, fmt.Sprintf("%.3f", f.GeomeanBy(d)))
	}
	t.Rows = append(t.Rows, gm)
	return t
}

// CountersTable lists the raw counters behind the Fig. 5 runs, one row
// per (combo, design): IPCs, fast-tier hit rates and tier traffic,
// demand misses, migration outcomes, writebacks and swaps, remap-cache
// behavior, average memory latency and the energy split. Percentages
// are of the source's demand accesses; energy is in millijoules.
func (f *Fig5Result) CountersTable() *Table {
	t := &Table{
		Title: fmt.Sprintf("Per-run counters of the Fig. 5 runs (weighted IPC at %g:%g)", f.WCPU, f.WGPU),
		Columns: []string{"combo", "design", "cpu_ipc", "gpu_ipc", "weighted_ipc",
			"fast_hit_cpu_%", "fast_hit_gpu_%", "fast_reads", "fast_writes",
			"slow_reads", "slow_writes", "demand_miss_cpu", "demand_miss_gpu",
			"migr_cpu", "migr_gpu", "bypassed", "no_victim", "queue_full",
			"writebacks", "swaps", "misplaced", "remap_hit_%", "remap_misses",
			"lat_cpu_cyc", "lat_gpu_cyc",
			"energy_mj", "fast_dyn_mj", "fast_static_mj", "slow_dyn_mj", "slow_static_mj"},
	}
	u := func(v uint64) string { return fmt.Sprintf("%d", v) }
	for _, c := range f.Combos {
		for _, d := range f.Designs {
			r := f.Raw[c][d]
			h := r.Hybrid
			remapHit := 100 * float64(h.RemapHits) / float64(max(h.RemapHits+h.RemapMisses, 1))
			t.Add(c, d,
				fmt.Sprintf("%.3f", r.CPUIPC), fmt.Sprintf("%.3f", r.GPUIPC),
				fmt.Sprintf("%.3f", r.WeightedIPC(f.WCPU, f.WGPU)),
				fmt.Sprintf("%.1f", 100*h.HitRate(0)), fmt.Sprintf("%.1f", 100*h.HitRate(1)),
				u(r.Fast.Reads), u(r.Fast.Writes), u(r.Slow.Reads), u(r.Slow.Writes),
				u(h.SlowDemandReads[0]), u(h.SlowDemandReads[1]),
				u(h.Migrations[0]), u(h.Migrations[1]),
				u(h.Bypasses[0]+h.Bypasses[1]), u(h.NoVictim[0]+h.NoVictim[1]),
				u(h.FillQueueFull[0]+h.FillQueueFull[1]),
				u(h.Writebacks[0]+h.Writebacks[1]), u(h.Swaps), u(h.Misplaced),
				fmt.Sprintf("%.1f", remapHit), u(h.RemapMisses),
				fmt.Sprintf("%.0f", h.AvgLatency(0)), fmt.Sprintf("%.0f", h.AvgLatency(1)),
				fmt.Sprintf("%.2f", r.TotalEnergyPJ()/1e9),
				fmt.Sprintf("%.2f", r.FastDynamicPJ/1e9), fmt.Sprintf("%.2f", r.FastStaticPJ/1e9),
				fmt.Sprintf("%.2f", r.SlowDynamicPJ/1e9), fmt.Sprintf("%.2f", r.SlowStaticPJ/1e9))
		}
	}
	return t
}

// Fig6Table derives "Fig. 6: Memory energy comparison" from the Fig. 5
// runs: total memory energy (dynamic + static, both tiers) normalized to
// HAShCache, for HAShCache, Profess, and Hydrogen.
func (f *Fig5Result) Fig6Table() *Table {
	designs := []string{system.DesignHAShCache, system.DesignProfess, system.DesignHydrogen}
	t := &Table{Title: "Fig. 6: memory energy (normalized to HAShCache)",
		Columns: append([]string{"combo"}, designs...)}
	var sums [3][]float64
	for _, c := range f.Combos {
		hash := f.Raw[c][system.DesignHAShCache]
		ref := hash.TotalEnergyPJ()
		row := []string{c}
		for i, d := range designs {
			r := f.Raw[c][d]
			norm := 0.0
			if ref > 0 {
				norm = r.TotalEnergyPJ() / ref
			}
			sums[i] = append(sums[i], norm)
			row = append(row, fmt.Sprintf("%.3f", norm))
		}
		t.Rows = append(t.Rows, row)
	}
	gm := []string{"geomean"}
	for i := range designs {
		gm = append(gm, fmt.Sprintf("%.3f", Geomean(sums[i])))
	}
	t.Rows = append(t.Rows, gm)
	return t
}

package experiments

import (
	"fmt"

	"github.com/hydrogen-sim/hydrogen/internal/core"
	"github.com/hydrogen-sim/hydrogen/internal/system"
	"github.com/hydrogen-sim/hydrogen/internal/workloads"
)

// baselines runs the Baseline design once per combo on cfg. Every
// weighted speedup on cfg divides by these runs, so an experiment
// simulates each (config, combo) Baseline once.
func (o *Options) baselines(cfg system.Config, combos []workloads.Combo) ([]system.Results, error) {
	return mapOrdered(o.parallelism(), len(combos), func(i int) (system.Results, error) {
		return o.run(cfg, named(system.DesignBaseline), combos[i])
	})
}

// variantGeomean evaluates a set of Hydrogen option variants over
// combos against their Baseline runs base and returns geomean weighted
// speedups by variant name.
func variantGeomean(o Options, combos []workloads.Combo, base []system.Results, variants map[string]system.HydrogenOptions) (map[string]float64, error) {
	wCPU, wGPU := weightsOf(o.Base)
	names := sortedKeys(variants)
	speedups, err := mapOrdered(o.parallelism(), len(names)*len(combos), func(k int) (float64, error) {
		name, ci := names[k/len(combos)], k%len(combos)
		r, err := o.run(o.Base, system.HydrogenSpec(variants[name]), combos[ci])
		s := WeightedSpeedup(r, base[ci], wCPU, wGPU)
		o.logf("fig7: %s %s speedup %.3f", name, combos[ci].ID, s)
		return s, err
	})
	if err != nil {
		return nil, err
	}

	out := map[string]float64{}
	for vi, name := range names {
		out[name] = Geomean(speedups[vi*len(combos) : (vi+1)*len(combos)])
	}
	return out, nil
}

func weightsOf(base system.Config) (float64, float64) {
	if base.WeightCPU == 0 && base.WeightGPU == 0 {
		return 12, 1
	}
	return base.WeightCPU, base.WeightGPU
}

// Fig7a reproduces "Fig. 7(a): performance impact of fast memory swap
// methods": Ideal (free swaps), Hydrogen (default), Prob (half the swaps
// bypassed), NoSwap. Geomean weighted speedups over the baseline.
func Fig7a(o Options) (map[string]float64, error) {
	combos, err := o.combos()
	if err != nil {
		return nil, err
	}
	base, err := o.baselines(o.Base, combos)
	if err != nil {
		return nil, err
	}
	full := system.HydrogenOptions{Tokens: true, TokIdx: 3, Climb: true}
	mk := func(m core.SwapMode) system.HydrogenOptions {
		v := full
		v.Swap = m
		return v
	}
	return variantGeomean(o, combos, base, map[string]system.HydrogenOptions{
		"Ideal":    mk(core.SwapIdeal),
		"Hydrogen": mk(core.SwapOn),
		"Prob":     mk(core.SwapProb),
		"NoSwap":   mk(core.SwapOff),
	})
}

// Fig7aTable renders Fig. 7(a).
func Fig7aTable(m map[string]float64) *Table {
	t := &Table{Title: "Fig. 7(a): fast memory swap methods (geomean weighted speedup)",
		Columns: []string{"variant", "speedup"}}
	for _, k := range []string{"Ideal", "Hydrogen", "Prob", "NoSwap"} {
		t.Add(k, fmt.Sprintf("%.3f", m[k]))
	}
	return t
}

// Fig7b reproduces "Fig. 7(b): reconfiguration overheads": Hydrogen's
// lazy reconfiguration vs an ideal zero-cost reconfigure, plus the
// offline exhaustive search upper bound (best static operating point per
// combo, the Fig. 8 oracle).
func Fig7b(o Options) (map[string]float64, error) {
	combos, err := o.combos()
	if err != nil {
		return nil, err
	}
	base, err := o.baselines(o.Base, combos)
	if err != nil {
		return nil, err
	}
	full := system.HydrogenOptions{Tokens: true, TokIdx: 3, Climb: true}
	ideal := full
	ideal.IdealReconfig = true
	m, err := variantGeomean(o, combos, base, map[string]system.HydrogenOptions{
		"Hydrogen":         full,
		"IdealReconfigure": ideal,
	})
	if err != nil {
		return nil, err
	}

	// Offline exhaustive oracle over a coarse static grid.
	wCPU, wGPU := weightsOf(o.Base)
	points := StaticGrid(coarse)
	var xs []float64
	for ci, combo := range combos {
		speedups, err := mapOrdered(o.parallelism(), len(points), func(i int) (float64, error) {
			r, err := o.run(o.Base, points[i].Spec(), combo)
			return WeightedSpeedup(r, base[ci], wCPU, wGPU), err
		})
		if err != nil {
			return nil, err
		}
		best := 0.0
		for _, s := range speedups {
			if s > best {
				best = s
			}
		}
		o.logf("fig7b: %s exhaustive best %.3f", combo.ID, best)
		xs = append(xs, best)
	}
	m["ExhaustiveOffline"] = Geomean(xs)
	return m, nil
}

// Fig7bTable renders Fig. 7(b).
func Fig7bTable(m map[string]float64) *Table {
	t := &Table{Title: "Fig. 7(b): reconfiguration overheads (geomean weighted speedup)",
		Columns: []string{"variant", "speedup"}}
	for _, k := range []string{"IdealReconfigure", "Hydrogen", "ExhaustiveOffline"} {
		t.Add(k, fmt.Sprintf("%.3f", m[k]))
	}
	return t
}

package experiments

import (
	"fmt"
	"slices"

	"github.com/hydrogen-sim/hydrogen/internal/core"
	"github.com/hydrogen-sim/hydrogen/internal/system"
	"github.com/hydrogen-sim/hydrogen/internal/workloads"
)

// variantGeomean evaluates a set of Hydrogen option variants over
// combos and returns geomean weighted speedups by variant name.
func variantGeomean(o Options, combos []workloads.Combo, variants map[string]system.HydrogenOptions) (map[string]float64, error) {
	var names []string
	for name := range variants {
		names = append(names, name)
	}
	slices.Sort(names)
	gm, err := o.geomeanSpeedups(len(names), combos, func(i int) (system.Config, system.DesignSpec, string) {
		return o.Base, system.HydrogenSpec(variants[names[i]]), "fig7: " + names[i]
	})
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for i, name := range names {
		out[name] = gm[i]
	}
	return out, nil
}

// Fig7a reproduces "Fig. 7(a): performance impact of fast memory swap
// methods": Ideal (free swaps), Hydrogen (default), Prob (half the swaps
// bypassed), NoSwap. Geomean weighted speedups over the baseline.
func Fig7a(o Options) (map[string]float64, error) {
	o.memoize()
	combos, err := o.combos()
	if err != nil {
		return nil, err
	}
	full := system.HydrogenOptions{Tokens: true, TokIdx: 3, Climb: true}
	mk := func(m core.SwapMode) system.HydrogenOptions {
		v := full
		v.Swap = m
		return v
	}
	return variantGeomean(o, combos, map[string]system.HydrogenOptions{
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
	o.memoize()
	combos, err := o.combos()
	if err != nil {
		return nil, err
	}
	full := system.HydrogenOptions{Tokens: true, TokIdx: 3, Climb: true}
	ideal := full
	ideal.IdealReconfig = true
	m, err := variantGeomean(o, combos, map[string]system.HydrogenOptions{
		"Hydrogen":         full,
		"IdealReconfigure": ideal,
	})
	if err != nil {
		return nil, err
	}

	// Offline exhaustive oracle over a coarse static grid.
	points := StaticGrid(Coarse)
	np := len(points)
	speedups, err := mapOrdered(o.parallelism(), len(combos)*np, func(k int) (float64, error) {
		s, _, err := o.speedup(o.Base, points[k%np].Spec(), combos[k/np])
		return s, err
	})
	if err != nil {
		return nil, err
	}
	var xs []float64
	for ci, combo := range combos {
		best := slices.Max(speedups[ci*np : (ci+1)*np])
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

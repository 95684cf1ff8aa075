package experiments

import (
	"fmt"
	"sort"

	"github.com/hydrogen-sim/hydrogen/internal/system"
	"github.com/hydrogen-sim/hydrogen/internal/workloads"
)

// StaticPoint is one fixed (cap, bw, tok) operating point.
type StaticPoint struct {
	CPUWays   int
	CPUGroups int
	TokIdx    int
}

func (p StaticPoint) String() string {
	return fmt.Sprintf("cap=%d bw=%d tok=%d", p.CPUWays, p.CPUGroups, p.TokIdx)
}

// GridDensity selects how fine the exhaustive grid is.
type GridDensity int

// Grid densities.
const (
	// Coarse is the reduced grid used by the Fig. 7(b) oracle.
	Coarse GridDensity = iota
	// Full enumerates every feasible (cap, bw, tok) combination.
	Full
)

// StaticGrid enumerates static operating points for a 4-way, 4-group
// system. The full grid is what Fig. 8 sweeps; the coarse grid samples
// it for the Fig. 7(b) oracle.
func StaticGrid(d GridDensity) []StaticPoint {
	var toks []int
	if d == Full {
		toks = []int{0, 1, 2, 3, 4, 5, 6}
	} else {
		toks = []int{1, 3, 6}
	}
	var out []StaticPoint
	for cap := 1; cap <= 3; cap++ {
		for bw := 0; bw <= cap && bw <= 3; bw++ {
			if d == Coarse && bw != 1 && bw != cap {
				continue
			}
			for _, tok := range toks {
				out = append(out, StaticPoint{cap, bw, tok})
			}
		}
	}
	return out
}

// Spec is the Hydrogen spec pinned at p, with climbing disabled.
func (p StaticPoint) Spec() system.DesignSpec {
	return system.HydrogenSpec(system.HydrogenOptions{
		Tokens:     true,
		FixedPoint: &[3]int{p.CPUWays, p.CPUGroups, p.TokIdx},
	})
}

// Fig8Row is one static configuration's result.
type Fig8Row struct {
	Point   StaticPoint
	Speedup float64 // weighted speedup vs baseline
}

// Fig8Result holds the exhaustive sweep plus Hydrogen's online result.
type Fig8Result struct {
	Combo    string
	Rows     []Fig8Row // sorted by speedup descending
	Hydrogen float64   // online hill-climbing result
}

// Fig8 reproduces "Fig. 8: performance of the exhaustive search
// configurations and the one found by Hydrogen" on one combo (the paper
// uses C5). Rows are normalized to Hydrogen in the rendered table, as in
// the figure.
func Fig8(o Options, comboID string, d GridDensity) (*Fig8Result, error) {
	o.memoize()
	combo, err := workloads.ComboByID(comboID)
	if err != nil {
		return nil, err
	}
	// The static points, then online Hydrogen last.
	points := StaticGrid(d)
	speedups, err := mapOrdered(o.parallelism(), len(points)+1, func(i int) (float64, error) {
		if i == len(points) {
			s, _, err := o.speedup(o.Base, named(system.DesignHydrogen), combo)
			return s, err
		}
		s, _, err := o.speedup(o.Base, points[i].Spec(), combo)
		o.logf("fig8: %s -> %.3f", points[i], s)
		return s, err
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Fig8Row, len(points))
	for i, p := range points {
		rows[i] = Fig8Row{Point: p, Speedup: speedups[i]}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Speedup > rows[j].Speedup })
	return &Fig8Result{Combo: comboID, Rows: rows, Hydrogen: speedups[len(points)]}, nil
}

// Best returns the best static configuration.
func (f *Fig8Result) Best() Fig8Row { return f.Rows[0] }

// Median returns the median static configuration.
func (f *Fig8Result) Median() Fig8Row { return f.Rows[len(f.Rows)/2] }

// HydrogenVsOptimal returns online-Hydrogen's fraction of the static
// optimum (the paper reports 96.1%).
func (f *Fig8Result) HydrogenVsOptimal() float64 {
	return safeDiv(f.Hydrogen, f.Best().Speedup)
}

// Table renders the sweep normalized to Hydrogen, as in the figure.
func (f *Fig8Result) Table() *Table {
	t := &Table{Title: fmt.Sprintf("Fig. 8: exhaustive configurations on %s (normalized to Hydrogen)", f.Combo),
		Columns: []string{"configuration", "vs Hydrogen", "vs baseline"}}
	for _, r := range f.Rows {
		t.Add(r.Point.String(), fmt.Sprintf("%.3f", safeDiv(r.Speedup, f.Hydrogen)),
			fmt.Sprintf("%.3f", r.Speedup))
	}
	t.Add("Hydrogen (online)", "1.000", fmt.Sprintf("%.3f", f.Hydrogen))
	return t
}

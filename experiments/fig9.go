package experiments

import (
	"fmt"

	"github.com/hydrogen-sim/hydrogen/internal/system"
)

// Fig9Row is one epoch- or phase-length sample.
type Fig9Row struct {
	Label   string
	Factor  float64 // multiple of the base length
	Speedup float64 // geomean weighted speedup vs baseline
}

// Fig9Epoch reproduces "Fig. 9(b): sensitivity to sampling epoch length":
// geomean Hydrogen speedup with the epoch scaled by each factor. The
// paper's sweet spot is 10 M cycles — too-short epochs pay
// reconfiguration churn, too-long ones adapt too slowly.
func Fig9Epoch(o Options, factors []float64) ([]Fig9Row, error) {
	if len(factors) == 0 {
		factors = []float64{0.25, 0.5, 1, 2, 4}
	}
	return fig9sweep(o, factors, "epoch", func(f float64) (system.Config, system.DesignSpec) {
		cfg := o.Base
		cfg.EpochLen = max(uint64(float64(cfg.EpochLen)*f), 1)
		return cfg, named(system.DesignHydrogen)
	})
}

// Fig9Phase reproduces "Fig. 9(a): sensitivity to phase length": the
// interval at which exploration restarts, in multiples of the default
// 50-epoch phase.
func Fig9Phase(o Options, factors []float64) ([]Fig9Row, error) {
	if len(factors) == 0 {
		factors = []float64{0.25, 0.5, 1, 2}
	}
	return fig9sweep(o, factors, "phase", func(f float64) (system.Config, system.DesignSpec) {
		return o.Base, system.HydrogenSpec(system.HydrogenOptions{
			Tokens: true, TokIdx: 3, Climb: true, PhaseEpochs: max(uint64(50*f), 1),
		})
	})
}

// fig9sweep runs the (config, design) point of each factor on every
// combo and reports geomean speedups over the baseline on that config.
func fig9sweep(o Options, factors []float64, label string, point func(float64) (system.Config, system.DesignSpec)) ([]Fig9Row, error) {
	o.memoize()
	combos, err := o.combos()
	if err != nil {
		return nil, err
	}
	gm, err := o.geomeanSpeedups(len(factors), combos, func(i int) (system.Config, system.DesignSpec, string) {
		cfg, design := point(factors[i])
		return cfg, design, fmt.Sprintf("fig9 %s x%.2f", label, factors[i])
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Fig9Row, len(factors))
	for i, f := range factors {
		rows[i] = Fig9Row{Label: fmt.Sprintf("%s x%.2f", label, f), Factor: f, Speedup: gm[i]}
	}
	return rows, nil
}

// Fig9Table renders a Fig. 9 sweep.
func Fig9Table(title string, rows []Fig9Row) *Table {
	t := &Table{Title: title, Columns: []string{"setting", "geomean speedup"}}
	for _, r := range rows {
		t.Add(r.Label, fmt.Sprintf("%.3f", r.Speedup))
	}
	return t
}

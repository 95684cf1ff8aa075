package experiments

import (
	"fmt"
	"reflect"
	"slices"

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
// Factors with equal configs share one set of Baseline runs, so
// Fig9Phase, which varies only the design, runs one Baseline per combo.
func fig9sweep(o Options, factors []float64, label string, point func(float64) (system.Config, system.DesignSpec)) ([]Fig9Row, error) {
	wCPU, wGPU := weightsOf(o.Base)
	combos, err := o.combos()
	if err != nil {
		return nil, err
	}
	// baseCfgs holds each distinct config once; factor i divides by the
	// Baseline runs of baseCfgs[baseOf[i]].
	cfgs := make([]system.Config, len(factors))
	designs := make([]system.DesignSpec, len(factors))
	baseOf := make([]int, len(factors))
	var baseCfgs []system.Config
	for i, f := range factors {
		cfgs[i], designs[i] = point(f)
		baseOf[i] = slices.IndexFunc(baseCfgs, func(c system.Config) bool { return reflect.DeepEqual(c, cfgs[i]) })
		if baseOf[i] < 0 {
			baseOf[i] = len(baseCfgs)
			baseCfgs = append(baseCfgs, cfgs[i])
		}
	}
	nc := len(combos)
	base, err := mapOrdered(o.parallelism(), len(baseCfgs)*nc, func(k int) (system.Results, error) {
		return o.run(baseCfgs[k/nc], named(system.DesignBaseline), combos[k%nc])
	})
	if err != nil {
		return nil, err
	}
	speedups, err := mapOrdered(o.parallelism(), len(factors)*nc, func(k int) (float64, error) {
		i, ci := k/nc, k%nc
		r, err := o.run(cfgs[i], designs[i], combos[ci])
		s := WeightedSpeedup(r, base[baseOf[i]*nc+ci], wCPU, wGPU)
		o.logf("fig9 %s x%.2f %s: %.3f", label, factors[i], combos[ci].ID, s)
		return s, err
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Fig9Row, len(factors))
	for i, f := range factors {
		xs := speedups[i*nc : (i+1)*nc]
		rows[i] = Fig9Row{Label: fmt.Sprintf("%s x%.2f", label, f), Factor: f, Speedup: Geomean(xs)}
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

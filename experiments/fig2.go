package experiments

import (
	"fmt"

	"github.com/hydrogen-sim/hydrogen/internal/system"
	"github.com/hydrogen-sim/hydrogen/internal/workloads"
)

// alone runs a combo's CPU workloads without its GPU workload and the
// GPU workload without the CPU cores, on the Baseline design.
func (o *Options) alone(cfg system.Config, combo workloads.Combo) (cpu, gpu system.Results, err error) {
	design := named(system.DesignBaseline)
	cpuOnly := combo
	cpuOnly.GPU = ""
	if cpu, err = o.run(cfg, design, cpuOnly); err != nil {
		return
	}
	cfg.Cores = 0
	gpu, err = o.run(cfg, design, combo)
	return
}

// Fig2aRow is one combo's co-run slowdowns.
type Fig2aRow struct {
	Combo       string
	CPUSlowdown float64
	GPUSlowdown float64
}

// Fig2a reproduces "Fig. 2(a): slowdown of CPU and GPU workloads when
// running them together compared to running each alone" on the
// unpartitioned baseline.
func Fig2a(o Options) ([]Fig2aRow, error) {
	o.memoize()
	combos, err := o.combos()
	if err != nil {
		return nil, err
	}
	return mapOrdered(o.parallelism(), len(combos), func(i int) (Fig2aRow, error) {
		c := combos[i]
		ca, ga, err := o.alone(o.Base, c)
		if err != nil {
			return Fig2aRow{}, err
		}
		tog, err := o.run(o.Base, named(system.DesignBaseline), c)
		if err != nil {
			return Fig2aRow{}, err
		}
		row := Fig2aRow{
			Combo:       c.ID,
			CPUSlowdown: safeDiv(ca.CPUIPC, tog.CPUIPC),
			GPUSlowdown: safeDiv(ga.GPUIPC, tog.GPUIPC),
		}
		o.logf("fig2a: %s cpu %.2fx gpu %.2fx", c.ID, row.CPUSlowdown, row.GPUSlowdown)
		return row, nil
	})
}

// Fig2aTable renders the Fig. 2(a) rows.
func Fig2aTable(rows []Fig2aRow) *Table {
	t := &Table{Title: "Fig. 2(a): co-run slowdown vs running alone (baseline)",
		Columns: []string{"combo", "CPU slowdown", "GPU slowdown"}}
	for _, r := range rows {
		t.Add(r.Combo, fmt.Sprintf("%.2f", r.CPUSlowdown), fmt.Sprintf("%.2f", r.GPUSlowdown))
	}
	return t
}

// SensitivityKnob selects which resource Fig. 2(b)-(d) scales.
type SensitivityKnob int

// Fig. 2 sensitivity knobs.
const (
	KnobFastBW       SensitivityKnob = iota // Fig. 2(b)
	KnobFastCapacity                        // Fig. 2(c)
	KnobSlowBW                              // Fig. 2(d)
)

// String names the knob.
func (k SensitivityKnob) String() string {
	switch k {
	case KnobFastBW:
		return "fast-bandwidth"
	case KnobFastCapacity:
		return "fast-capacity"
	default:
		return "slow-bandwidth"
	}
}

// Fig2SensRow is one scale point of a sensitivity sweep.
type Fig2SensRow struct {
	Scale   float64
	CPUPerf float64 // normalized to scale=1
	GPUPerf float64
}

// Fig2Sensitivity reproduces Fig. 2(b)-(d): performance of the CPU and
// GPU workloads in one combo (the paper uses C1) as one memory resource
// is scaled down, normalized to the full-resource point.
func Fig2Sensitivity(o Options, comboID string, knob SensitivityKnob, scales []float64) ([]Fig2SensRow, error) {
	o.memoize()
	combo, err := workloads.ComboByID(comboID)
	if err != nil {
		return nil, err
	}
	if len(scales) == 0 {
		scales = []float64{1, 0.5, 0.25}
	}
	results, err := mapOrdered(o.parallelism(), len(scales), func(i int) (system.Results, error) {
		sc := scales[i]
		cfg := o.Base
		switch knob {
		case KnobFastBW:
			cfg.FastBWScale = sc
		case KnobSlowBW:
			cfg.SlowBWScale = sc
		case KnobFastCapacity:
			// Shrink the tier, not the workloads.
			cfg.ProfileScaleBytes = cfg.Hybrid.FastCapacityBytes
			cap := uint64(float64(cfg.Hybrid.FastCapacityBytes) * sc)
			env := cfg.Env()
			setBytes := env.BlockBytes * uint64(env.Assoc)
			cfg.Hybrid.FastCapacityBytes = cap / setBytes * setBytes
		}
		r, err := o.run(cfg, named(system.DesignBaseline), combo)
		o.logf("fig2 %s: scale %.2f done", knob, sc)
		return r, err
	})
	if err != nil {
		return nil, err
	}

	rows := make([]Fig2SensRow, len(scales))
	ref := results[0]
	for i, sc := range scales {
		rows[i] = Fig2SensRow{
			Scale:   sc,
			CPUPerf: safeDiv(results[i].CPUIPC, ref.CPUIPC),
			GPUPerf: safeDiv(results[i].GPUIPC, ref.GPUIPC),
		}
	}
	return rows, nil
}

// Fig2SensTable renders a sensitivity sweep.
func Fig2SensTable(knob SensitivityKnob, rows []Fig2SensRow) *Table {
	t := &Table{Title: fmt.Sprintf("Fig. 2: %s sensitivity (normalized perf)", knob),
		Columns: []string{"scale", "CPU perf", "GPU perf"}}
	for _, r := range rows {
		t.Add(fmt.Sprintf("%.2f", r.Scale), fmt.Sprintf("%.3f", r.CPUPerf), fmt.Sprintf("%.3f", r.GPUPerf))
	}
	return t
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

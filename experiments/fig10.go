package experiments

import (
	"fmt"

	"github.com/hydrogen-sim/hydrogen/internal/system"
	"github.com/hydrogen-sim/hydrogen/internal/workloads"
)

// Fig10aRow is one IPC-weight setting's result on the weight-study
// combo: the CPU and GPU slowdowns (vs running alone) under Hydrogen.
type Fig10aRow struct {
	WCPU, WGPU  float64
	CPUSlowdown float64
	GPUSlowdown float64
}

// Fig10a reproduces "Fig. 10(a): impact of different CPU:GPU IPC
// weights" on one combo (the paper uses C6): higher CPU weights reduce
// the CPU slowdown at a small GPU cost. Lower slowdown is better.
func Fig10a(o Options, comboID string, weights [][2]float64) ([]Fig10aRow, error) {
	o.memoize()
	combo, err := workloads.ComboByID(comboID)
	if err != nil {
		return nil, err
	}
	if len(weights) == 0 {
		weights = [][2]float64{{1, 1}, {4, 1}, {12, 1}, {32, 1}}
	}
	// Alone runs are weight-independent.
	cpuAlone, gpuAlone, err := o.alone(o.Base, combo)
	if err != nil {
		return nil, err
	}

	return mapOrdered(o.parallelism(), len(weights), func(i int) (Fig10aRow, error) {
		w := weights[i]
		cfg := o.Base
		cfg.WeightCPU, cfg.WeightGPU = w[0], w[1]
		r, err := o.run(cfg, named(system.DesignHydrogen), combo)
		if err != nil {
			return Fig10aRow{}, err
		}
		row := Fig10aRow{
			WCPU: w[0], WGPU: w[1],
			CPUSlowdown: safeDiv(cpuAlone.CPUIPC, r.CPUIPC),
			GPUSlowdown: safeDiv(gpuAlone.GPUIPC, r.GPUIPC),
		}
		o.logf("fig10a %g:%g cpu %.2fx gpu %.2fx", w[0], w[1], row.CPUSlowdown, row.GPUSlowdown)
		return row, nil
	})
}

// Fig10aTable renders Fig. 10(a).
func Fig10aTable(comboID string, rows []Fig10aRow) *Table {
	t := &Table{Title: fmt.Sprintf("Fig. 10(a): IPC weight impact on %s (Hydrogen; lower slowdown is better)", comboID),
		Columns: []string{"weights CPU:GPU", "CPU slowdown", "GPU slowdown"}}
	for _, r := range rows {
		t.Add(fmt.Sprintf("%g:%g", r.WCPU, r.WGPU),
			fmt.Sprintf("%.2f", r.CPUSlowdown), fmt.Sprintf("%.2f", r.GPUSlowdown))
	}
	return t
}

// Fig10bRow is one core-count configuration's result.
type Fig10bRow struct {
	Cores   int
	Speedup float64 // Hydrogen weighted speedup vs baseline at that count
	Profess float64 // best baseline design for reference
}

// Fig10b reproduces "Fig. 10(b): impact of CPU core counts": the CPU
// core count scales while the GPU stays at 96 EUs, with IPC weights
// following the core-count ratio (wCPU = 96/cores).
func Fig10b(o Options, counts []int) ([]Fig10bRow, error) {
	o.memoize()
	if len(counts) == 0 {
		counts = []int{4, 8, 16}
	}
	combos, err := o.combos()
	if err != nil {
		return nil, err
	}
	// Hydrogen and Profess at each count.
	gm, err := o.geomeanSpeedups(2*len(counts), combos, func(i int) (system.Config, system.DesignSpec, string) {
		n, d := counts[i/2], []string{system.DesignHydrogen, system.DesignProfess}[i%2]
		cfg := o.Base
		cfg.Cores = n
		cfg.WeightCPU, cfg.WeightGPU = 96/float64(n), 1
		return cfg, named(d), fmt.Sprintf("fig10b cores=%d %s", n, d)
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Fig10bRow, len(counts))
	for i, n := range counts {
		rows[i] = Fig10bRow{Cores: n, Speedup: gm[2*i], Profess: gm[2*i+1]}
	}
	return rows, nil
}

// Fig10bTable renders Fig. 10(b).
func Fig10bTable(rows []Fig10bRow) *Table {
	t := &Table{Title: "Fig. 10(b): CPU core count impact (geomean weighted speedup vs baseline)",
		Columns: []string{"cores", "Hydrogen", "Profess"}}
	for _, r := range rows {
		t.Add(fmt.Sprintf("%d", r.Cores), fmt.Sprintf("%.3f", r.Speedup), fmt.Sprintf("%.3f", r.Profess))
	}
	return t
}

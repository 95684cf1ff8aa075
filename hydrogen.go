// Package hydrogen is the public API of the Hydrogen reproduction: a
// full-system simulator for contention-aware hybrid memory (HBM + DDR)
// on heterogeneous CPU-GPU processors, implementing the SC'24 paper
// "Hydrogen: Contention-Aware Hybrid Memory for Heterogeneous CPU-GPU
// Architectures" (Li & Gao) together with its baselines (HAShCache,
// Profess, WayPart) and evaluation workloads.
//
// Quickstart:
//
//	cfg := hydrogen.QuickConfig()
//	base, _ := hydrogen.Run(cfg, hydrogen.DesignBaseline, "C1")
//	h, _ := hydrogen.Run(cfg, hydrogen.DesignHydrogen, "C1")
//	fmt.Println(hydrogen.WeightedSpeedup(h, base, 12, 1))
//
// The experiments package regenerates every table and figure of the
// paper; the cmd/hydroexp tool is its CLI, and `hydroexp counters`
// prints the per-run counters (hit rates, migrations, latencies,
// energy) of the Fig. 5 runs. Flat mode (Config.Hybrid.Mode) and the
// IPC weights are Config fields that Run honours. A workload assignment
// outside Table II is Config.CPUProfiles and GPUProfile with NewSystem,
// or an inline combo in a job sent to a hydroserved daemon.
//
// Simulations are deterministic for their seed: each runs on one
// serial event engine, so parallelism comes from running many
// simulations at once (experiments.Options.Parallel, the hydroserved
// worker pool).
package hydrogen

import (
	"github.com/hydrogen-sim/hydrogen/experiments"
	"github.com/hydrogen-sim/hydrogen/internal/memory/hybrid"
	"github.com/hydrogen-sim/hydrogen/internal/system"
	"github.com/hydrogen-sim/hydrogen/internal/workloads"
)

// Core configuration and result types (aliases of the internal system
// package, so the whole machine is configurable through the public API).
type (
	// Config describes one simulated machine + workload assignment.
	Config = system.Config
	// Results aggregates a finished simulation.
	Results = system.Results
	// EpochSample is one sampling epoch's IPC measurements.
	EpochSample = system.EpochSample
	// PolicyEnv is the geometry handed to policy factories.
	PolicyEnv = system.PolicyEnv
	// PolicyFactory builds a partitioning policy for a system.
	PolicyFactory = system.PolicyFactory
	// HydrogenOptions selects which Hydrogen mechanisms are active.
	HydrogenOptions = system.HydrogenOptions
	// System is a fully wired simulated machine.
	System = system.System
	// Combo is one Table II workload combination.
	Combo = workloads.Combo
)

// Fast-tier organization modes (Section II-A): ModeCache treats the
// fast tier as a hardware-managed cache of the slow tier; ModeFlat
// makes both tiers one flat space managed by swapping.
const (
	ModeCache = hybrid.ModeCache
	ModeFlat  = hybrid.ModeFlat
)

// Design names accepted by Run (the Fig. 5 designs).
const (
	DesignBaseline        = system.DesignBaseline
	DesignHAShCache       = system.DesignHAShCache
	DesignProfess         = system.DesignProfess
	DesignWayPart         = system.DesignWayPart
	DesignHydrogenDP      = system.DesignHydrogenDP
	DesignHydrogenDPToken = system.DesignHydrogenDPToken
	DesignHydrogen        = system.DesignHydrogen
)

// QuickConfig returns the scaled-down default configuration: Table I
// shapes with a 16 MB fast tier and shorter epochs; bandwidths and
// timings are unscaled so contention behavior is preserved (DESIGN.md).
func QuickConfig() Config { return system.Quick() }

// PaperConfig returns the full Table I scale (512 MB fast tier,
// 10 M-cycle epochs). Roughly 30x slower to simulate than QuickConfig.
func PaperConfig() Config { return system.Paper() }

// Designs lists the comparison designs in Fig. 5 presentation order.
func Designs() []string { return system.Designs() }

// Combos lists the Table II workload combination IDs (C1..C12).
func Combos() []string {
	out := make([]string, len(workloads.Combos))
	for i, c := range workloads.Combos {
		out[i] = c.ID
	}
	return out
}

// ComboByID returns a Table II combination.
func ComboByID(id string) (Combo, error) { return workloads.ComboByID(id) }

// CPUWorkloads lists the SPEC CPU2017 stand-in profile names.
func CPUWorkloads() []string { return workloads.CPUNames() }

// GPUWorkloads lists the Rodinia / MLPerf stand-in profile names.
func GPUWorkloads() []string { return workloads.GPUNames() }

// Run simulates comboID under the named design on cfg and returns the
// results. The combo's CPU workloads are assigned rate-mode style across
// cfg.Cores and its GPU workload across the GPU subslices.
func Run(cfg Config, design, comboID string) (Results, error) {
	combo, err := workloads.ComboByID(comboID)
	if err != nil {
		return Results{}, err
	}
	return system.RunDesign(cfg, design, combo)
}

// HydrogenFactory builds a Hydrogen policy factory with specific
// mechanisms enabled — the hook for ablations beyond the stock designs.
func HydrogenFactory(o HydrogenOptions) PolicyFactory { return system.HydrogenFactory(o) }

// NewSystem wires a machine from an explicit configuration (including
// cfg.CPUProfiles / cfg.GPUProfile workload assignments) and policy.
func NewSystem(cfg Config, factory PolicyFactory) (*System, error) {
	return system.New(cfg, factory)
}

// WeightedSpeedup combines per-processor speedups over a baseline run
// with the given IPC weights — the paper's end metric.
func WeightedSpeedup(r, baseline Results, wCPU, wGPU float64) float64 {
	return experiments.WeightedSpeedup(r, baseline, wCPU, wGPU)
}

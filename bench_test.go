// Benchmarks: one per table and figure of the paper's evaluation. Each
// benchmark runs a reduced instance (small fast tier, short runs, and
// where applicable a single workload combo) so `go test -bench=.`
// completes in minutes; `cmd/hydroexp` regenerates the full-size
// artifacts. The ablation benchmarks at the bottom quantify the design
// choices DESIGN.md calls out (consistent hashing, token granularity,
// remap-cache sizing).
package hydrogen

import (
	"runtime/debug"
	"testing"

	"github.com/hydrogen-sim/hydrogen/experiments"
	"github.com/hydrogen-sim/hydrogen/internal/chash"
	"github.com/hydrogen-sim/hydrogen/internal/system"
	"github.com/hydrogen-sim/hydrogen/internal/workloads"
)

func benchOptions() experiments.Options {
	base := system.Quick()
	base.Hybrid.FastCapacityBytes = 4 << 20
	base.Hybrid.RemapCacheBytes = 16 << 10
	base.LLC.SizeBytes = 256 << 10
	base.EpochLen = 100_000
	base.Cycles = 600_000
	// Parallel: 1 pins the benchmarks to a single worker so they measure
	// single-run simulation throughput, not host core count.
	return experiments.Options{Base: base, Combos: []string{"C1"}, Parallel: 1}
}

func init() { debug.SetGCPercent(800) }

// BenchmarkTable1Config regenerates Table I (system configuration).
func BenchmarkTable1Config(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if t := experiments.Table1(system.Quick()); len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2Workloads regenerates Table II (workload combos) and
// validates every profile resolves.
func BenchmarkTable2Workloads(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if t := experiments.Table2(); len(t.Rows) != 12 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkFigure2a regenerates the co-run slowdown measurement.
func BenchmarkFigure2a(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2a(benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2bcd regenerates the three resource-sensitivity sweeps.
func BenchmarkFigure2bcd(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, knob := range []experiments.SensitivityKnob{
			experiments.KnobFastBW, experiments.KnobFastCapacity, experiments.KnobSlowBW,
		} {
			if _, err := experiments.Fig2Sensitivity(benchOptions(), "C1", knob, []float64{1, 0.5}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigure5 regenerates the main design comparison (HBM2E).
func BenchmarkFigure5(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(benchOptions(), false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5Telemetry is BenchmarkFigure5 with per-run epoch
// telemetry capture and CSV artifact writing enabled — the pair
// quantifies the observability overhead on the main comparison.
func BenchmarkFigure5Telemetry(b *testing.B) {
	b.ReportAllocs()
	opts := benchOptions()
	opts.TelemetryDir = b.TempDir()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(opts, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5HBM3 regenerates Fig. 5(b) with the HBM3 fast tier.
func BenchmarkFigure5HBM3(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(benchOptions(), true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6 regenerates the memory-energy comparison (derived
// from the Fig. 5 runs).
func BenchmarkFigure6(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5(benchOptions(), false)
		if err != nil {
			b.Fatal(err)
		}
		if t := r.Fig6Table(); len(t.Rows) == 0 {
			b.Fatal("empty energy table")
		}
	}
}

// BenchmarkFigure7a regenerates the fast-memory-swap variant study.
func BenchmarkFigure7a(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7a(benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7b regenerates the reconfiguration-overhead study.
func BenchmarkFigure7b(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7b(benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure8 regenerates the exhaustive-search sweep (coarse grid
// at bench scale; hydroexp fig8 runs the full grid).
func BenchmarkFigure8(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(benchOptions(), "C1", experiments.Coarse); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure9 regenerates the epoch/phase-length sensitivity.
func BenchmarkFigure9(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9Epoch(benchOptions(), []float64{0.5, 1, 2}); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.Fig9Phase(benchOptions(), []float64{0.5, 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure10a regenerates the IPC-weight study.
func BenchmarkFigure10a(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10a(benchOptions(), "C1", [][2]float64{{1, 1}, {12, 1}, {32, 1}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure10b regenerates the core-count study.
func BenchmarkFigure10b(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10b(benchOptions(), []int{4, 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure11 regenerates the associativity / block-size sweep.
func BenchmarkFigure11(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfgs := []experiments.Fig11Config{
			{Assoc: 1, BlockBytes: 64}, {Assoc: 4, BlockBytes: 256}, {Assoc: 4, BlockBytes: 1024}}
		if _, err := experiments.Fig11(benchOptions(), cfgs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationConsistentHash compares rendezvous way selection with
// a naive modulo mapping under reconfiguration: the churn (ways whose
// owner flips when cap moves by one) is what lazy reconfiguration must
// absorb, so lower is better. Reported as flips per set in the metric.
func BenchmarkAblationConsistentHash(b *testing.B) {
	b.ReportAllocs()
	const sets = 4096
	shared := []int{1, 2, 3}
	flipsRendezvous, flipsModulo := 0, 0
	for i := 0; i < b.N; i++ {
		flipsRendezvous, flipsModulo = 0, 0
		for s := uint64(0); s < sets; s++ {
			// cap 3 -> 2: CPU extras go from 2 shared ways to 1.
			before := chash.Select(s, shared, 2)
			after := chash.Select(s, shared, 1)
			if before[0] != after[0] {
				flipsRendezvous++
			}
			// Naive modulo: extras are ways (s+k)%3 for k < extra.
			mb := [2]int{int(s % 3), int((s + 1) % 3)}
			ma := int(s % 2) // different modulus: arbitrary remap
			if mb[0] != ma {
				flipsModulo++
			}
		}
	}
	b.ReportMetric(float64(flipsRendezvous)/sets, "rendezvous-flips/set")
	b.ReportMetric(float64(flipsModulo)/sets, "modulo-flips/set")
}

// BenchmarkAblationTokenGranularity compares Hydrogen's single token
// counter against per-channel counters (the paper found "negligible
// difference", Section IV-B); the metric is the weighted speedup of the
// single-counter design, with per-channel emulated by quartering the
// quota (4 slow channels).
func BenchmarkAblationTokenGranularity(b *testing.B) {
	b.ReportAllocs()
	o := benchOptions()
	combo, _ := workloads.ComboByID("C5")
	for i := 0; i < b.N; i++ {
		baseline, err := system.RunDesign(o.Base, system.DesignBaseline, combo)
		if err != nil {
			b.Fatal(err)
		}
		single, err := system.RunDesign(o.Base, system.DesignHydrogenDPToken, combo)
		if err != nil {
			b.Fatal(err)
		}
		s := experiments.WeightedSpeedup(single, baseline, 12, 1)
		b.ReportMetric(s, "single-counter-speedup")
	}
}

// BenchmarkAblationRemapCache sweeps the remap-cache size: metadata
// probes are on every access path, so an undersized cache taxes the fast
// tier with table reads.
func BenchmarkAblationRemapCache(b *testing.B) {
	b.ReportAllocs()
	combo, _ := workloads.ComboByID("C1")
	for _, kb := range []uint64{4, 16, 64} {
		kb := kb
		b.Run(sizeName(kb), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := benchOptions().Base
				cfg.Hybrid.RemapCacheBytes = kb << 10
				r, err := system.RunDesign(cfg, system.DesignHydrogen, combo)
				if err != nil {
					b.Fatal(err)
				}
				total := r.Hybrid.RemapHits + r.Hybrid.RemapMisses
				if total > 0 {
					b.ReportMetric(float64(r.Hybrid.RemapHits)/float64(total), "remap-hit-rate")
				}
			}
		})
	}
}

func sizeName(kb uint64) string {
	switch kb {
	case 4:
		return "4kB"
	case 16:
		return "16kB"
	default:
		return "64kB"
	}
}

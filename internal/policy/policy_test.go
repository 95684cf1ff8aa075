package policy

import (
	"testing"

	"github.com/hydrogen-sim/hydrogen/internal/memory/dram"
	"github.com/hydrogen-sim/hydrogen/internal/memory/hybrid"
)

func fullSet(n int) []hybrid.WayView {
	ways := make([]hybrid.WayView, n)
	for i := range ways {
		ways[i] = hybrid.WayView{Valid: true, LastUse: uint64(n - i)}
	}
	return ways
}

func TestBaselineSharesEverything(t *testing.T) {
	b := NewBaseline(4, 4)
	for w := 0; w < 4; w++ {
		if b.Owner(3, w) != hybrid.OwnerShared {
			t.Fatalf("way %d not shared", w)
		}
	}
	ways := fullSet(4)
	// Global LRU: way 3 has the smallest LastUse above.
	if v := b.Victim(0, ways, dram.SourceCPU); v != 3 {
		t.Fatalf("victim %d, want LRU way 3", v)
	}
	if !b.AllowMigration(dram.SourceGPU, 2, 0) {
		t.Fatal("baseline denied a migration")
	}
	// Striping spreads consecutive sets across groups.
	if b.WayGroup(0, 0) == b.WayGroup(1, 0) {
		t.Fatal("baseline does not rotate ways across channel groups by set")
	}
}

func TestWayPartSplit(t *testing.T) {
	p := NewWayPart(4, 4)
	if p.CPUWays != 3 {
		t.Fatalf("CPUWays %d, want 3 (75%% of 4)", p.CPUWays)
	}
	cpu, gpu := 0, 0
	for w := 0; w < 4; w++ {
		switch p.Owner(0, w) {
		case hybrid.OwnerCPU:
			cpu++
		case hybrid.OwnerGPU:
			gpu++
		}
	}
	if cpu != 3 || gpu != 1 {
		t.Fatalf("split %d/%d, want 3/1", cpu, gpu)
	}
	// Coupled mapping: way w always lives on group w, every set.
	for set := uint64(0); set < 16; set++ {
		for w := 0; w < 4; w++ {
			if p.WayGroup(set, w) != w {
				t.Fatal("WayPart mapping must couple ways to channels")
			}
		}
	}
	ways := fullSet(4)
	if v := p.Victim(0, ways, dram.SourceGPU); v != 3 {
		t.Fatalf("GPU victim %d, want its own way 3", v)
	}
	v := p.Victim(0, ways, dram.SourceCPU)
	if v < 0 || v > 2 {
		t.Fatalf("CPU victim %d outside its partition", v)
	}
}

func TestWayPartClamps(t *testing.T) {
	p := NewWayPart(4, 1)
	if p.CPUWays != 1 {
		// With one way there is nothing to split; the constructor keeps
		// at least one way on each side where possible.
		t.Fatalf("CPUWays %d for assoc 1", p.CPUWays)
	}
	p2 := NewWayPart(4, 2)
	if p2.CPUWays != 1 {
		t.Fatalf("CPUWays %d for assoc 2, want 1", p2.CPUWays)
	}
}

func TestHAShCacheBypassAdapts(t *testing.T) {
	p := NewHAShCache(4, 1, 1)
	if !p.AllowMigration(dram.SourceCPU, 1, 0) {
		t.Fatal("CPU migration denied")
	}
	// Feed epochs where GPU migrations earn no reuse: admission decays.
	// Each epoch's Stats is its delta, as the system delivers it.
	var useless hybrid.Stats
	useless.Migrations[dram.SourceGPU] = 1000
	useless.FastHits[dram.SourceGPU] = 100 // 0.1 hits per migration
	for i := 0; i < 10; i++ {
		p.OnEpoch(hybrid.EpochMetrics{Stats: useless})
	}
	granted := 0
	for i := 0; i < 1000; i++ {
		if p.AllowMigration(dram.SourceGPU, 1, 0) {
			granted++
		}
	}
	if granted > 200 {
		t.Fatalf("GPU admission %d/1000 after useless migrations, want heavy bypass", granted)
	}
	// Now migrations earn strong reuse: admission recovers.
	var useful hybrid.Stats
	useful.Migrations[dram.SourceGPU] = 1000
	useful.FastHits[dram.SourceGPU] = 10000
	for i := 0; i < 10; i++ {
		p.OnEpoch(hybrid.EpochMetrics{Stats: useful})
	}
	granted = 0
	for i := 0; i < 1000; i++ {
		if p.AllowMigration(dram.SourceGPU, 1, 0) {
			granted++
		}
	}
	if granted < 700 {
		t.Fatalf("GPU admission %d/1000 after useful migrations, want recovery", granted)
	}
}

func TestProfessFairnessThrottling(t *testing.T) {
	p := NewProfess(4, 4, 1)
	if p.MigProb(dram.SourceCPU) != 1 || p.MigProb(dram.SourceGPU) != 1 {
		t.Fatal("Profess must start fully admitting")
	}
	// GPU is comparatively fine (low latency), CPU suffers: the GPU's
	// migrations should be throttled to give the CPU slow bandwidth.
	var epoch hybrid.Stats
	epoch.Demand[dram.SourceCPU] = 1000
	epoch.LatencySum[dram.SourceCPU] = 1000 * 600 // avg 600
	epoch.Demand[dram.SourceGPU] = 1000
	epoch.LatencySum[dram.SourceGPU] = 1000 * 120 // avg 120
	for i := 0; i < 12; i++ {
		p.OnEpoch(hybrid.EpochMetrics{Stats: epoch})
	}
	if p.MigProb(dram.SourceGPU) > 0.5 {
		t.Fatalf("GPU migration probability %.2f; fairness throttling inactive", p.MigProb(dram.SourceGPU))
	}
	if p.MigProb(dram.SourceGPU) < 0.05-1e-9 {
		t.Fatalf("GPU migration probability %.2f below floor", p.MigProb(dram.SourceGPU))
	}
}

func TestProfessImproperMigrationPrevention(t *testing.T) {
	p := NewProfess(4, 4, 2)
	// Balanced latencies, but CPU migrations earn <1 hit each.
	var epoch hybrid.Stats
	epoch.Demand[dram.SourceCPU] = 1000
	epoch.LatencySum[dram.SourceCPU] = 1000 * 200
	epoch.Demand[dram.SourceGPU] = 1000
	epoch.LatencySum[dram.SourceGPU] = 1000 * 200
	epoch.Migrations[dram.SourceCPU] = 500
	epoch.FastHits[dram.SourceCPU] = 100
	for i := 0; i < 12; i++ {
		p.OnEpoch(hybrid.EpochMetrics{Stats: epoch})
	}
	if p.MigProb(dram.SourceCPU) > 0.5 {
		t.Fatalf("CPU migration probability %.2f despite useless migrations", p.MigProb(dram.SourceCPU))
	}
}

func TestPoliciesNeverPickBusyWays(t *testing.T) {
	ways := fullSet(4)
	for i := range ways {
		ways[i].Busy = true
	}
	pols := []hybrid.Policy{
		NewBaseline(4, 4), NewWayPart(4, 4), NewHAShCache(4, 4, 1), NewProfess(4, 4, 1),
	}
	for _, p := range pols {
		for _, src := range []dram.Source{dram.SourceCPU, dram.SourceGPU} {
			if v := p.Victim(0, ways, src); v != -1 {
				t.Fatalf("%s picked busy way %d", p.Name(), v)
			}
		}
	}
}

func TestNames(t *testing.T) {
	if NewBaseline(4, 4).Name() != "Baseline" ||
		NewWayPart(4, 4).Name() != "WayPart" ||
		NewHAShCache(4, 1, 1).Name() != "HAShCache" ||
		NewProfess(4, 4, 1).Name() != "Profess" {
		t.Fatal("policy names changed; reports depend on them")
	}
}

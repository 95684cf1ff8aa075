package hybrid_test

import (
	"testing"

	"github.com/hydrogen-sim/hydrogen/internal/memory/dram"
	"github.com/hydrogen-sim/hydrogen/internal/memory/hybrid"
	"github.com/hydrogen-sim/hydrogen/internal/policy"
	"github.com/hydrogen-sim/hydrogen/internal/sim"
)

// denyMigration wraps Baseline but refuses every migration.
type denyMigration struct{ *policy.Baseline }

func (denyMigration) AllowMigration(dram.Source, uint64, uint64) bool { return false }

func build(t *testing.T, cfg hybrid.Config, pol hybrid.Policy) (*sim.Engine, *hybrid.Controller, *dram.Tier, *dram.Tier) {
	t.Helper()
	eng := sim.New()
	fcfg := dram.HBM2E()
	fcfg.Channels = 8
	fast, err := dram.NewTier(eng, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := dram.NewTier(eng, dram.DDR4())
	if err != nil {
		t.Fatal(err)
	}
	if pol == nil {
		pol = policy.NewBaseline(8/4, 4)
	}
	ctl, err := hybrid.New(eng, cfg, fast, slow, pol)
	if err != nil {
		t.Fatal(err)
	}
	return eng, ctl, fast, slow
}

func smallCfg() hybrid.Config {
	return hybrid.Config{FastCapacityBytes: 1 << 20, RemapCacheBytes: 8 << 10}
}

func TestConfigValidate(t *testing.T) {
	bad := []hybrid.Config{
		{FastCapacityBytes: 0},
		{FastCapacityBytes: 1000}, // not a multiple of set size
		{FastCapacityBytes: 1 << 20, BlockBytes: 100},
		{FastCapacityBytes: 1 << 20, Assoc: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d validated", i)
		}
	}
	good := smallCfg()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMissMigratesThenHits(t *testing.T) {
	eng, ctl, fast, slow := build(t, smallCfg(), nil)
	var first, second uint64
	ctl.Access(0x1000, false, dram.SourceCPU, func(now uint64) { first = now })
	eng.Run()
	s := ctl.Stats()
	if s.SlowDemandReads[dram.SourceCPU] != 1 || s.Migrations[dram.SourceCPU] != 1 {
		t.Fatalf("after first access: %+v", s)
	}
	// Traffic amplification: the 64 B demand read plus a 256 B block
	// refill from slow, and a 256 B fill into fast (4 line writes).
	if got := slow.Stats().BytesRead; got != 64+256 {
		t.Fatalf("slow bytes read %d, want 320 (demand + refill)", got)
	}
	if got := fast.Stats().Writes; got != 4 {
		t.Fatalf("fast writes %d, want 4 (block fill)", got)
	}
	base := eng.Now()
	ctl.Access(0x1040, false, dram.SourceCPU, func(now uint64) { second = now - base })
	eng.Run()
	s = ctl.Stats()
	if s.FastHits[dram.SourceCPU] != 1 {
		t.Fatalf("second access did not hit fast: %+v", s)
	}
	if second >= first {
		t.Fatalf("fast hit latency %d not below miss latency %d", second, first)
	}
}

func TestPendingFillCoalesced(t *testing.T) {
	eng, ctl, _, slow := build(t, smallCfg(), nil)
	done := 0
	for l := uint64(0); l < 4; l++ {
		ctl.Access(0x2000+l*64, false, dram.SourceGPU, func(uint64) { done++ })
	}
	eng.Run()
	if done != 4 {
		t.Fatalf("%d of 4 accesses completed", done)
	}
	s := ctl.Stats()
	if s.Migrations[dram.SourceGPU] != 1 {
		t.Fatalf("migrations %d, want 1 (others coalesce on the fill)", s.Migrations[dram.SourceGPU])
	}
	// Slow traffic: one demand line + one block refill; the 3 followers
	// wait on the fill instead of issuing their own slow reads.
	if got := slow.Stats().BytesRead; got != 64+256 {
		t.Fatalf("slow bytes read %d, want 320", got)
	}
}

func TestSameLineCoalesced(t *testing.T) {
	eng, ctl, _, _ := build(t, smallCfg(), denyMigration{policy.NewBaseline(2, 4)})
	done := 0
	ctl.Access(0x3000, false, dram.SourceCPU, func(uint64) { done++ })
	ctl.Access(0x3000, false, dram.SourceCPU, func(uint64) { done++ })
	eng.Run()
	if done != 2 {
		t.Fatalf("%d of 2 coalesced accesses completed", done)
	}
	s := ctl.Stats()
	if s.SlowDemandReads[dram.SourceCPU] != 2 {
		t.Fatalf("demand reads counted %d", s.SlowDemandReads[dram.SourceCPU])
	}
}

func TestDenyMigrationBypasses(t *testing.T) {
	eng, ctl, fast, _ := build(t, smallCfg(), denyMigration{policy.NewBaseline(2, 4)})
	ctl.Access(0x1000, false, dram.SourceGPU, nil)
	eng.Run()
	s := ctl.Stats()
	if s.Bypasses[dram.SourceGPU] != 1 || s.Migrations[dram.SourceGPU] != 0 {
		t.Fatalf("stats %+v", s)
	}
	if fast.Stats().Writes != 0 {
		t.Fatal("bypassed migration still wrote to fast tier")
	}
	cpu, gpu := ctl.Occupancy()
	if cpu+gpu != 0 {
		t.Fatal("bypassed migration allocated a way")
	}
}

func TestWriteMissGoesToSlow(t *testing.T) {
	eng, ctl, fast, slow := build(t, smallCfg(), nil)
	ctl.Access(0x5000, true, dram.SourceCPU, nil)
	eng.Run()
	s := ctl.Stats()
	if s.SlowWrites[dram.SourceCPU] != 1 {
		t.Fatalf("slow writes %d, want 1", s.SlowWrites[dram.SourceCPU])
	}
	if slow.Stats().Writes != 1 || fast.Stats().Writes != 0 {
		t.Fatalf("traffic: slow writes %d fast writes %d", slow.Stats().Writes, fast.Stats().Writes)
	}
}

func TestDirtyVictimWrittenBack(t *testing.T) {
	cfg := smallCfg()
	cfg.FastCapacityBytes = 4096 // 4 sets x 4 ways x 256 B
	eng, ctl, _, slow := build(t, cfg, nil)
	setBytes := uint64(4 * 256)
	// Fill all 4 ways of set 0 and dirty the first block.
	for i := uint64(0); i < 4; i++ {
		ctl.Access(i*setBytes, false, dram.SourceCPU, nil)
		eng.Run()
	}
	ctl.Access(0, true, dram.SourceCPU, nil) // dirty block 0 (fast hit)
	eng.Run()
	preWrites := slow.Stats().Writes
	// Fifth block in set 0: evicts LRU (block at 1*setBytes, clean) first...
	ctl.Access(4*setBytes, false, dram.SourceCPU, nil)
	eng.Run()
	// ...then keep evicting until the dirty block 0 goes.
	ctl.Access(5*setBytes, false, dram.SourceCPU, nil)
	ctl.Access(6*setBytes, false, dram.SourceCPU, nil)
	ctl.Access(7*setBytes, false, dram.SourceCPU, nil)
	eng.Run()
	s := ctl.Stats()
	if s.Writebacks[dram.SourceCPU] == 0 {
		t.Fatalf("no victim writeback recorded: %+v", s)
	}
	if slow.Stats().Writes <= preWrites {
		t.Fatal("dirty victim produced no slow-tier writes")
	}
}

func TestFlatModeAlwaysWritesBackVictim(t *testing.T) {
	cfg := smallCfg()
	cfg.Mode = hybrid.ModeFlat
	cfg.FastCapacityBytes = 4096
	eng, ctl, _, slow := build(t, cfg, nil)
	setBytes := uint64(4 * 256)
	for i := uint64(0); i < 5; i++ { // fifth fill evicts a clean block
		ctl.Access(i*setBytes, false, dram.SourceCPU, nil)
		eng.Run()
	}
	s := ctl.Stats()
	if s.Writebacks[dram.SourceCPU] == 0 {
		t.Fatal("flat-mode eviction of a clean block did not write back")
	}
	if slow.Stats().Writes == 0 {
		t.Fatal("no slow writes for flat-mode swap")
	}
}

func TestRemapCacheCounts(t *testing.T) {
	eng, ctl, _, _ := build(t, smallCfg(), nil)
	ctl.Access(0x1000, false, dram.SourceCPU, nil)
	eng.Run()
	if s := ctl.Stats(); s.RemapMisses != 1 {
		t.Fatalf("first access remap misses %d, want 1", s.RemapMisses)
	}
	ctl.Access(0x1040, false, dram.SourceCPU, nil)
	eng.Run()
	if s := ctl.Stats(); s.RemapHits != 1 {
		t.Fatalf("second access remap hits %d, want 1", s.RemapHits)
	}
}

func TestChainingFindsBlockInChainedSet(t *testing.T) {
	cfg := smallCfg()
	cfg.Assoc = 1
	cfg.Chaining = true
	eng, ctl, _, _ := build(t, cfg, policy.NewHAShCache(2, 1, 1))
	numSets := ctl.NumSets()
	blockA := uint64(0)     // set 0
	blockB := numSets * 256 // also set 0, conflicts with A
	ctl.Access(blockA, false, dram.SourceCPU, nil)
	eng.Run()
	ctl.Access(blockB, false, dram.SourceCPU, nil) // evicts A from set 0
	eng.Run()
	// Fill A again; B is evicted from the direct-mapped slot. Then probe
	// for a block that lives in set 1 via normal placement while set 0
	// probes chain into set 1 — validated indirectly through counters.
	ctl.Access(blockA, false, dram.SourceCPU, nil)
	eng.Run()
	s := ctl.Stats()
	if s.ChainProbes == 0 {
		t.Fatalf("chained organization recorded no chain probes: %+v", s)
	}
}

func TestOccupancyBySource(t *testing.T) {
	eng, ctl, _, _ := build(t, smallCfg(), nil)
	ctl.Access(0x1000, false, dram.SourceCPU, nil)
	ctl.Access(0x9000, false, dram.SourceGPU, nil)
	eng.Run()
	cpu, gpu := ctl.Occupancy()
	if cpu != 1 || gpu != 1 {
		t.Fatalf("occupancy cpu=%d gpu=%d, want 1/1", cpu, gpu)
	}
}

func TestInvalidateAll(t *testing.T) {
	eng, ctl, _, _ := build(t, smallCfg(), nil)
	ctl.Access(0x1000, false, dram.SourceCPU, nil)
	eng.Run()
	ctl.InvalidateAll()
	eng.Run()
	cpu, gpu := ctl.Occupancy()
	if cpu+gpu != 0 {
		t.Fatalf("occupancy %d/%d after InvalidateAll", cpu, gpu)
	}
	pre := ctl.Stats().FastHits[dram.SourceCPU]
	ctl.Access(0x1000, false, dram.SourceCPU, nil)
	eng.Run()
	if ctl.Stats().FastHits[dram.SourceCPU] != pre {
		t.Fatal("access after InvalidateAll still hit")
	}
}

func TestLatencyAccounting(t *testing.T) {
	eng, ctl, _, _ := build(t, smallCfg(), nil)
	ctl.Access(0x1000, false, dram.SourceCPU, nil)
	eng.Run()
	s := ctl.Stats()
	if s.LatencySum[dram.SourceCPU] == 0 {
		t.Fatal("no latency recorded")
	}
	if s.AvgLatency(dram.SourceCPU) != float64(s.LatencySum[dram.SourceCPU]) {
		t.Fatal("AvgLatency disagrees with single-access sum")
	}
}

func TestStatsDelta(t *testing.T) {
	a := hybrid.Stats{Swaps: 10}
	a.Demand[0] = 100
	b := hybrid.Stats{Swaps: 25}
	b.Demand[0] = 160
	d := b.Delta(a)
	if d.Swaps != 15 || d.Demand[0] != 60 {
		t.Fatalf("delta %+v", d)
	}
}

// swapEveryHit is Baseline plus a fast memory swap on every hit: the hit
// way trades places with its neighbour, and both blocks move.
type swapEveryHit struct{ *policy.Baseline }

func (swapEveryHit) SwapTarget(_ uint64, w int, ways []hybrid.WayView, _ dram.Source) int {
	return (w + 1) % len(ways)
}

func (swapEveryHit) SwapIsFree() bool { return false }

// TestSteadyCopiesAllocateNothing streams migrations over dirty victims
// and swaps through warmed-up pools: victim writebacks and swap moves
// take pooled copy records, so a round allocates nothing.
func TestSteadyCopiesAllocateNothing(t *testing.T) {
	eng, ctl, _, _ := build(t, smallCfg(), swapEveryHit{policy.NewBaseline(2, 4)})
	numSets := ctl.NumSets()
	var next uint64
	round := func() {
		// Each of eight sets takes a new block, whose migration evicts a
		// block a previous round dirtied; then a write hit dirties the
		// new block and swaps it with its neighbour.
		for _, write := range []bool{false, true} {
			for s := uint64(0); s < 8; s++ {
				ctl.Access((next*numSets+s)*256, write, dram.SourceCPU, nil)
			}
			eng.Run()
		}
		next++
	}
	for i := 0; i < 50; i++ {
		round()
	}
	before := ctl.Stats()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Fatalf("a round of migrations and swaps allocates %.1f times, want 0", n)
	}
	d := ctl.Stats().Delta(before)
	if rounds := uint64(101 * 8); d.Writebacks[dram.SourceCPU] != rounds || d.Swaps != rounds || d.Migrations[dram.SourceCPU] != rounds {
		t.Fatalf("over %d set-rounds: %d writebacks, %d swaps, %d migrations; want one each per set-round",
			rounds, d.Writebacks[dram.SourceCPU], d.Swaps, d.Migrations[dram.SourceCPU])
	}
}

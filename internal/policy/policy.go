// Package policy implements the comparison designs the paper evaluates
// against Hydrogen (Section V, "Baselines"):
//
//   - Baseline: the unpartitioned hybrid memory of Fig. 1.
//   - WayPart: simple coupled way-partitioning, 75% of ways (and their
//     channels) dedicated to the CPU.
//   - HAShCache (Patil & Govindarajan, TACO'17): direct-mapped DRAM cache
//     with chained pseudo-associativity, CPU prioritization in the memory
//     controller, and reuse-driven slow-memory bypass.
//   - Profess (Knyaginin et al., HPCA'18): probabilistic migration
//     management for multi-agent fairness, ported to cache mode.
//
// HAShCache and Profess have no open-source releases; they are
// reimplemented here from their published descriptions at the same level
// of fidelity the paper used (it, too, reimplemented and adapted them).
package policy

import (
	"math/rand"

	"github.com/hydrogen-sim/hydrogen/internal/memory/dram"
	"github.com/hydrogen-sim/hydrogen/internal/memory/hybrid"
)

// Baseline is the non-partitioned design: every way is shared, ways
// stripe across channels by set for load balance, and every miss
// migrates. Figure 5 normalizes all other designs to it.
type Baseline struct {
	Groups int
	Assoc  int
}

// NewBaseline returns a Baseline for a system with the given number of
// fast superchannel groups and associativity.
func NewBaseline(groups, assoc int) *Baseline { return &Baseline{Groups: groups, Assoc: assoc} }

// Name implements hybrid.Policy.
func (*Baseline) Name() string { return "Baseline" }

// WayGroup stripes ways across channel groups, rotated by set so that
// consecutive sets spread over all channels.
func (b *Baseline) WayGroup(set uint64, w int) int {
	return int((set + uint64(w)) % uint64(b.Groups))
}

// Owner implements hybrid.Policy: everything is shared.
func (*Baseline) Owner(uint64, int) hybrid.Owner { return hybrid.OwnerShared }

// Victim picks the global LRU way.
func (*Baseline) Victim(_ uint64, ways []hybrid.WayView, _ dram.Source) int {
	return hybrid.LRUVictim(ways, func(int) bool { return true })
}

// AllowMigration always migrates.
func (*Baseline) AllowMigration(dram.Source, uint64, uint64) bool { return true }

// WayPart is the paper's simple partitioning comparison: a fixed 75% of
// the ways are dedicated to the CPU, and because ways map directly to
// channels, capacity and bandwidth partitioning are coupled.
type WayPart struct {
	Groups  int
	Assoc   int
	CPUWays int
}

// NewWayPart builds the 75%-to-CPU configuration used in Fig. 5,
// clamping so both sides keep at least one way.
func NewWayPart(groups, assoc int) *WayPart {
	cpu := (assoc*3 + 3) / 4
	if cpu >= assoc {
		cpu = assoc - 1
	}
	if cpu < 1 {
		cpu = 1
	}
	return &WayPart{Groups: groups, Assoc: assoc, CPUWays: cpu}
}

// Name implements hybrid.Policy.
func (*WayPart) Name() string { return "WayPart" }

// WayGroup couples way w to channel group w: the defining limitation of
// conventional partitioning (Fig. 3(a)).
func (p *WayPart) WayGroup(_ uint64, w int) int { return w % p.Groups }

// Owner dedicates the first CPUWays ways to the CPU and the rest to the
// GPU, identically in every set.
func (p *WayPart) Owner(_ uint64, w int) hybrid.Owner {
	if w < p.CPUWays {
		return hybrid.OwnerCPU
	}
	return hybrid.OwnerGPU
}

// Victim picks the LRU way within the requester's own partition.
func (p *WayPart) Victim(set uint64, ways []hybrid.WayView, src dram.Source) int {
	want := hybrid.OwnerCPU
	if src == dram.SourceGPU {
		want = hybrid.OwnerGPU
	}
	return hybrid.LRUVictim(ways, func(w int) bool { return p.Owner(set, w) == want })
}

// AllowMigration always migrates.
func (*WayPart) AllowMigration(dram.Source, uint64, uint64) bool { return true }

// HAShCache models the TACO'17 design. The structural parts (assoc-1
// organization, chained probing, CPU priority in the channel scheduler)
// are configured at system-build time; this policy contributes the
// reuse-adaptive slow-memory bypass: GPU fills are admitted with a
// probability that tracks how much reuse migrated GPU blocks have been
// getting.
type HAShCache struct {
	Groups int
	Assoc  int

	gpuMigProb float64
	rng        *rand.Rand
}

// NewHAShCache returns the policy with full admission to start.
func NewHAShCache(groups, assoc int, seed int64) *HAShCache {
	return &HAShCache{Groups: groups, Assoc: assoc, gpuMigProb: 1, rng: rand.New(rand.NewSource(seed))}
}

// Name implements hybrid.Policy.
func (*HAShCache) Name() string { return "HAShCache" }

// WayGroup stripes sets across channel groups (direct-mapped layouts
// have one way, so sets must spread over channels).
func (p *HAShCache) WayGroup(set uint64, w int) int {
	return int((set + uint64(w)) % uint64(p.Groups))
}

// Owner implements hybrid.Policy: capacity is shared.
func (*HAShCache) Owner(uint64, int) hybrid.Owner { return hybrid.OwnerShared }

// Victim is global LRU (trivial for the direct-mapped configuration).
func (*HAShCache) Victim(_ uint64, ways []hybrid.WayView, _ dram.Source) int {
	return hybrid.LRUVictim(ways, func(int) bool { return true })
}

// AllowMigration admits all CPU fills and GPU fills with the adaptive
// bypass probability.
func (p *HAShCache) AllowMigration(src dram.Source, _ uint64, _ uint64) bool {
	if src == dram.SourceCPU {
		return true
	}
	return p.rng.Float64() < p.gpuMigProb
}

// OnEpoch adapts the GPU admission probability toward fills that earn
// reuse: if migrated GPU blocks see fewer than ~2 hits per migration the
// probability decays, otherwise it recovers.
func (p *HAShCache) OnEpoch(m hybrid.EpochMetrics) {
	d := m.Stats
	mig := d.Migrations[dram.SourceGPU]
	if mig == 0 {
		return
	}
	reuse := float64(d.FastHits[dram.SourceGPU]) / float64(mig)
	if reuse < 2 {
		p.gpuMigProb *= 0.7
		if p.gpuMigProb < 0.05 {
			p.gpuMigProb = 0.05
		}
	} else {
		p.gpuMigProb = p.gpuMigProb*0.5 + 0.5
	}
}

// Profess models the HPCA'18 probabilistic hybrid-memory manager: each
// agent (CPU, GPU) migrates with a probability adapted every epoch to
// (a) stop migrations that do not earn reuse and (b) equalize the two
// agents' estimated slowdowns. It does not partition fast-memory
// capacity or bandwidth, which is exactly the gap Hydrogen exploits.
type Profess struct {
	Groups int
	Assoc  int

	// IdealLat is the latency an agent would see with no contention and
	// perfect caching; the slowdown estimate divides by it.
	IdealLat float64

	migProb [2]float64
	rng     *rand.Rand
}

// NewProfess builds the policy ported to cache mode / shared capacity as
// in the paper's methodology.
func NewProfess(groups, assoc int, seed int64) *Profess {
	p := &Profess{Groups: groups, Assoc: assoc, IdealLat: 60, rng: rand.New(rand.NewSource(seed))}
	p.migProb[0], p.migProb[1] = 1, 1
	return p
}

// Name implements hybrid.Policy.
func (*Profess) Name() string { return "Profess" }

// WayGroup stripes ways across groups by set.
func (p *Profess) WayGroup(set uint64, w int) int {
	return int((set + uint64(w)) % uint64(p.Groups))
}

// Owner implements hybrid.Policy: capacity is shared.
func (*Profess) Owner(uint64, int) hybrid.Owner { return hybrid.OwnerShared }

// Victim is global LRU: Profess controls fairness through migration
// probability, not through placement.
func (*Profess) Victim(_ uint64, ways []hybrid.WayView, _ dram.Source) int {
	return hybrid.LRUVictim(ways, func(int) bool { return true })
}

// AllowMigration admits a fill with the agent's current probability.
func (p *Profess) AllowMigration(src dram.Source, _ uint64, _ uint64) bool {
	return p.rng.Float64() < p.migProb[src]
}

// MigProb exposes the current admission probability of src (for tests).
func (p *Profess) MigProb(src dram.Source) float64 { return p.migProb[src] }

// OnEpoch adapts migration probabilities. Two signals per agent:
// reuse-per-migration (improper-migration prevention) and relative
// estimated slowdown (fairness): the agent with the *smaller* slowdown
// gets its migrations throttled so the other agent's traffic breathes.
func (p *Profess) OnEpoch(m hybrid.EpochMetrics) {
	d := m.Stats
	var slow [2]float64
	for s := 0; s < 2; s++ {
		slow[s] = d.AvgLatency(dram.Source(s)) / p.IdealLat
	}
	for s := 0; s < 2; s++ {
		src := dram.Source(s)
		adj := 1.0
		if mig := d.Migrations[src]; mig > 50 {
			if reuse := float64(d.FastHits[src]) / float64(mig); reuse < 1 {
				adj *= 0.7
			} else if reuse > 4 {
				adj *= 1.3
			}
		}
		other := dram.Source(1 - s)
		if slow[src] > 0 && slow[other] > 1.15*slow[src] {
			// This agent is doing comparatively fine; migrate less so the
			// suffering agent gets slow-memory bandwidth back.
			adj *= 0.75
		} else if slow[other] > 0 && slow[src] > 1.15*slow[other] {
			adj *= 1.25
		}
		p.migProb[s] *= adj
		if p.migProb[s] < 0.05 {
			p.migProb[s] = 0.05
		}
		if p.migProb[s] > 1 {
			p.migProb[s] = 1
		}
	}
}

// Interface conformance checks.
var (
	_ hybrid.Policy        = (*Baseline)(nil)
	_ hybrid.Policy        = (*WayPart)(nil)
	_ hybrid.Policy        = (*HAShCache)(nil)
	_ hybrid.Policy        = (*Profess)(nil)
	_ hybrid.EpochListener = (*HAShCache)(nil)
	_ hybrid.EpochListener = (*Profess)(nil)
)

// Package core implements Hydrogen itself (paper Section IV): the
// contention-aware hybrid-memory partitioning policy with
//
//   - decoupled fast-memory capacity/bandwidth partitioning through a
//     set-keyed consistent-hash mapping of ways to channel groups
//     (Section IV-A, Fig. 3(b)),
//   - token-based migration throttling of GPU-induced slow-memory
//     traffic with a periodic token faucet (Section IV-B, Fig. 4),
//   - epoch-based online hill climbing over the (cap, bw, tok) design
//     space (Section IV-C),
//   - lazy reconfiguration with minimal relocation via rendezvous
//     hashing and per-way alloc bits (Section IV-D).
//
// The policy plugs into the hybrid.Controller through the hybrid.Policy,
// hybrid.Swapper, hybrid.Lazy, and hybrid.EpochListener interfaces.
package core

import (
	"fmt"
	"math/rand"

	"github.com/hydrogen-sim/hydrogen/internal/chash"
	"github.com/hydrogen-sim/hydrogen/internal/memory/dram"
	"github.com/hydrogen-sim/hydrogen/internal/memory/hybrid"
)

// SwapMode selects the fast-memory-swap variant of Fig. 7(a).
type SwapMode uint8

// Swap modes.
const (
	SwapOn    SwapMode = iota // default: promote shared-way CPU hits into dedicated channels
	SwapIdeal                 // promotion happens architecturally but moves no data
	SwapProb                  // bypass half of the swaps probabilistically
	SwapOff                   // never swap
)

// String names the swap mode.
func (m SwapMode) String() string {
	switch m {
	case SwapIdeal:
		return "Ideal"
	case SwapProb:
		return "Prob"
	case SwapOff:
		return "NoSwap"
	default:
		return "Hydrogen"
	}
}

// DefaultTokLevels are the slow-bandwidth shares the token faucet can
// grant to GPU-induced migrations, as fractions of the slow tier's block
// transfer capacity per faucet period. Index 0 effectively disables GPU
// migration; the last level is unthrottled.
var DefaultTokLevels = []float64{0.025, 0.05, 0.10, 0.15, 0.25, 0.50, 1.0}

// Config parameterizes the Hydrogen policy.
type Config struct {
	Groups int // fast superchannel groups (N in the paper)
	Assoc  int // ways per set

	// Initial partitioning point: CPUWays is cap (C: ways per set holding
	// CPU data), CPUGroups is bw (B: channel groups dedicated to the CPU).
	// Invariants: 1 <= CPUWays <= Assoc-1, 0 <= CPUGroups <= Groups-1,
	// and CPUGroups <= CPUWays.
	CPUWays   int
	CPUGroups int

	// Token faucet. SlowBytesPerCycle and BlockBytes size the quota:
	// quota = TokLevels[TokIdx] * TokenPeriod * SlowBytesPerCycle / BlockBytes.
	EnableTokens      bool
	TokIdx            int
	TokLevels         []float64
	TokenPeriod       uint64
	SlowBytesPerCycle uint64
	BlockBytes        uint64

	// Hill climbing (Section IV-C). PhaseLen restarts exploration; 0
	// disables re-exploration after convergence.
	EnableClimb bool
	PhaseLen    uint64

	// Mechanism variants for the overhead studies.
	Swap         SwapMode
	LazyReconfig bool // false models the "Ideal reconfigure" of Fig. 7(b)

	Seed int64
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.TokLevels == nil {
		out.TokLevels = DefaultTokLevels
	}
	if out.TokenPeriod == 0 {
		out.TokenPeriod = 1_000_000
	}
	if out.BlockBytes == 0 {
		out.BlockBytes = 256
	}
	if out.SlowBytesPerCycle == 0 {
		out.SlowBytesPerCycle = 64
	}
	if out.CPUWays == 0 {
		out.CPUWays = maxInt(1, out.Assoc*3/4)
	}
	if out.CPUGroups == 0 && out.Groups > 1 {
		out.CPUGroups = 1
	}
	return out
}

// Validate reports whether the configuration is coherent.
func (c *Config) Validate() error {
	d := c.withDefaults()
	switch {
	case d.Groups <= 0 || d.Assoc <= 0:
		return fmt.Errorf("core: groups %d assoc %d", d.Groups, d.Assoc)
	case d.Assoc > 1 && (d.CPUWays < 1 || d.CPUWays > d.Assoc-1):
		return fmt.Errorf("core: CPUWays %d out of [1,%d]", d.CPUWays, d.Assoc-1)
	case d.CPUGroups < 0 || d.CPUGroups > d.Groups-1:
		return fmt.Errorf("core: CPUGroups %d out of [0,%d]", d.CPUGroups, d.Groups-1)
	case d.TokIdx < 0 || d.TokIdx >= len(d.TokLevels):
		return fmt.Errorf("core: TokIdx %d out of range", d.TokIdx)
	}
	return nil
}

// Stats counts Hydrogen-internal events.
type Stats struct {
	TokensGranted   uint64
	TokensDenied    uint64
	Reconfigs       uint64
	ClimbTrials     uint64
	ClimbImproves   uint64
	PhasesStarted   uint64
	SwapsProposed   uint64
	SwapsSuppressed uint64
}

// Hydrogen is the policy. It is not safe for concurrent use; the
// simulation engine is single-threaded.
type Hydrogen struct {
	cfg Config

	c      int // cap: CPU ways per set
	b      int // bw: dedicated CPU channel groups
	tokIdx int

	// cpuMask[set] has bit w set when way w of the set is CPU-allocated
	// (the alloc bits). Rebuilt when the operating point changes; ways
	// themselves stay pinned to channel groups, so reconfiguration moves
	// ownership, never data layout — the key to cheap reconfiguration.
	cpuMask   []uint16
	maskStale bool // cpuMask predates the operating point; rebuilt on next read
	numSets   uint64

	tokens     float64
	lastRefill uint64

	climb climber
	rng   *rand.Rand
	stats Stats
}

// New builds a Hydrogen policy.
func New(cfg Config) (*Hydrogen, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	h := &Hydrogen{
		cfg:    cfg,
		c:      cfg.CPUWays,
		b:      cfg.CPUGroups,
		tokIdx: cfg.TokIdx,
		rng:    rand.New(rand.NewSource(cfg.Seed + 0x4859)),
	}
	if cfg.Assoc == 1 {
		h.c, h.b = 0, 0 // direct-mapped: partitioning degenerates
	} else {
		// Normalize the initial point through the same clamping SetPoint
		// applies, without counting it as a reconfiguration.
		c, b, tok := h.c, h.b, h.tokIdx
		h.SetPoint(c, b, tok)
		h.stats.Reconfigs = 0
	}
	h.tokens = h.quota()
	h.climb = newClimber(h, cfg.EnableClimb)
	return h, nil
}

// Name implements hybrid.Policy.
func (h *Hydrogen) Name() string { return "Hydrogen" }

// Stats returns a snapshot of the internal counters.
func (h *Hydrogen) Stats() Stats { return h.stats }

// Point returns the current (cap, bw, tok) operating point.
func (h *Hydrogen) Point() (cpuWays, cpuGroups, tokIdx int) { return h.c, h.b, h.tokIdx }

// SetPoint moves the operating point (used by the climber and by the
// exhaustive-search experiments). Invalid combinations are clamped: the
// CPU's capacity share must at least cover its dedicated channels, and
// both sides keep at least one way.
func (h *Hydrogen) SetPoint(cpuWays, cpuGroups, tokIdx int) {
	a, g := h.cfg.Assoc, h.cfg.Groups
	cpuGroups = clamp(cpuGroups, 0, g-1)
	if a < g {
		cpuGroups = 0 // can't pin whole groups with fewer ways than groups
	} else {
		// Dedicating cpuGroups groups consumes cpuGroups*(a/g) ways; at
		// least one way must remain for the GPU.
		for cpuGroups > 0 && cpuGroups*(a/g) > a-1 {
			cpuGroups--
		}
	}
	minWays := minCap(a)
	if d := cpuGroups * maxInt(a/g, 0); a >= g && d > minWays {
		minWays = d
	}
	cpuWays = clamp(cpuWays, minWays, maxInt(a-1, 0))
	tokIdx = clamp(tokIdx, 0, len(h.cfg.TokLevels)-1)
	if cpuWays == h.c && cpuGroups == h.b && tokIdx == h.tokIdx {
		return
	}
	h.c, h.b, h.tokIdx = cpuWays, cpuGroups, tokIdx
	h.maskStale = true // rebuild the alloc bits lazily
	h.stats.Reconfigs++
}

func minCap(assoc int) int {
	if assoc == 1 {
		return 0
	}
	return 1
}

func (h *Hydrogen) quota() float64 {
	lvl := h.cfg.TokLevels[h.tokIdx]
	return lvl * float64(h.cfg.TokenPeriod) * float64(h.cfg.SlowBytesPerCycle) / float64(h.cfg.BlockBytes)
}

// SetNumSets fixes the set count so the alloc-bit table can be built
// eagerly. The system builder calls it once.
func (h *Hydrogen) SetNumSets(n uint64) { h.numSets = n; h.maskStale = true }

// dedicatedWays is the number of ways per set that live entirely in
// CPU-dedicated channel groups.
func (h *Hydrogen) dedicatedWays() int {
	a, g := h.cfg.Assoc, h.cfg.Groups
	if a < g {
		return 0 // too few ways to pin whole groups; bw partitioning degenerates
	}
	return h.b * (a / g)
}

// WayGroup pins way w to a channel group permanently: with at least as
// many ways as groups, way w lives in group w%G; with fewer ways, sets
// stripe across groups. Because this mapping never changes,
// reconfiguration moves alloc bits, not data (Section IV-D).
func (h *Hydrogen) WayGroup(set uint64, w int) int {
	if h.cfg.Assoc >= h.cfg.Groups {
		return w % h.cfg.Groups
	}
	return int((set + uint64(w)) % uint64(h.cfg.Groups))
}

// ownerMaskFor computes the alloc bits of one set: the dedicated-group
// ways are CPU; the remaining CPU capacity is drawn from the shared ways
// in per-set rendezvous order (Fig. 3(b)), so the extra CPU ways — and
// hence the GPU ways — land on different channels in different sets.
func (h *Hydrogen) ownerMaskFor(set uint64) uint16 {
	a := h.cfg.Assoc
	var mask uint16
	ded := 0
	if a >= h.cfg.Groups {
		for w := 0; w < a; w++ {
			if w%h.cfg.Groups < h.b {
				mask |= 1 << w
				ded++
			}
		}
	}
	if extra := h.c - ded; extra > 0 {
		shared := (uint64(1)<<a - 1) &^ uint64(mask)
		mask |= uint16(chash.SelectBits(set, shared, extra))
	}
	return mask
}

func (h *Hydrogen) allocBits(set uint64) uint16 {
	if h.numSets == 0 || set >= h.numSets {
		return h.ownerMaskFor(set)
	}
	if h.maskStale {
		if uint64(len(h.cpuMask)) != h.numSets {
			h.cpuMask = make([]uint16, h.numSets)
		}
		for s := range h.cpuMask {
			h.cpuMask[s] = h.ownerMaskFor(uint64(s))
		}
		h.maskStale = false
	}
	return h.cpuMask[set]
}

// Owner reads the alloc bit of way w of the set.
func (h *Hydrogen) Owner(set uint64, w int) hybrid.Owner {
	if h.cfg.Assoc == 1 {
		return hybrid.OwnerShared
	}
	if h.allocBits(set)&(1<<w) != 0 {
		return hybrid.OwnerCPU
	}
	return hybrid.OwnerGPU
}

// Victim picks the LRU way within the requester's allocation.
func (h *Hydrogen) Victim(set uint64, ways []hybrid.WayView, src dram.Source) int {
	if h.cfg.Assoc == 1 {
		return hybrid.LRUVictim(ways, func(int) bool { return true })
	}
	want := hybrid.OwnerCPU
	if src == dram.SourceGPU {
		want = hybrid.OwnerGPU
	}
	return hybrid.LRUVictim(ways, func(w int) bool { return h.Owner(set, w) == want })
}

// AllowMigration implements the token faucet of Section IV-B: GPU
// migrations consume cost tokens (1 per refill, 2 with a writeback or
// flat-mode swap); the bucket refills by the quota once per period.
func (h *Hydrogen) AllowMigration(src dram.Source, cost uint64, now uint64) bool {
	if src == dram.SourceCPU || !h.cfg.EnableTokens {
		return true
	}
	if periods := (now - h.lastRefill) / h.cfg.TokenPeriod; periods > 0 {
		h.lastRefill += periods * h.cfg.TokenPeriod
		h.tokens += float64(periods) * h.quota()
		if q := h.quota(); h.tokens > q {
			h.tokens = q
		}
	}
	if h.tokens >= float64(cost) {
		h.tokens -= float64(cost)
		h.stats.TokensGranted += cost
		return true
	}
	h.stats.TokensDenied++
	return false
}

// SwapTarget implements hybrid.Swapper: a CPU hit in a CPU way backed by
// a shared channel promotes into the LRU dedicated-channel way, forming
// the two-level hierarchy of Section IV-A.
func (h *Hydrogen) SwapTarget(set uint64, hitWay int, ways []hybrid.WayView, src dram.Source) int {
	if h.cfg.Swap == SwapOff || src != dram.SourceCPU || h.b == 0 || h.cfg.Assoc == 1 {
		return -1
	}
	if h.isDedicated(hitWay) || h.Owner(set, hitWay) != hybrid.OwnerCPU {
		return -1 // already dedicated, or not a CPU way
	}
	if h.cfg.Swap == SwapProb && h.rng.Intn(2) == 0 {
		h.stats.SwapsSuppressed++
		return -1
	}
	// LRU among dedicated ways; prefer an invalid slot.
	best := -1
	for w := 0; w < len(ways); w++ {
		if !h.isDedicated(w) || ways[w].Busy {
			continue
		}
		if !ways[w].Valid {
			best = w
			break
		}
		if best < 0 || ways[w].LastUse < ways[best].LastUse {
			best = w
		}
	}
	if best >= 0 {
		h.stats.SwapsProposed++
	}
	return best
}

// isDedicated reports whether way w lives entirely in a CPU-dedicated
// channel group.
func (h *Hydrogen) isDedicated(w int) bool {
	return h.cfg.Assoc >= h.cfg.Groups && w%h.cfg.Groups < h.b
}

// SwapIsFree implements hybrid.Swapper for the Ideal variant.
func (h *Hydrogen) SwapIsFree() bool { return h.cfg.Swap == SwapIdeal }

// Misplaced implements hybrid.Lazy: after a reconfiguration, a block
// whose inserting source no longer matches its way's alloc bit is
// invalidated on next touch.
func (h *Hydrogen) Misplaced(set uint64, w int, view hybrid.WayView) bool {
	if !h.cfg.LazyReconfig || h.cfg.Assoc == 1 {
		return false
	}
	owner := h.Owner(set, w)
	switch owner {
	case hybrid.OwnerCPU:
		return view.Src != dram.SourceCPU
	case hybrid.OwnerGPU:
		return view.Src != dram.SourceGPU
	}
	return false
}

// OnEpoch feeds the weighted IPC sample to the hill climber.
func (h *Hydrogen) OnEpoch(m hybrid.EpochMetrics) {
	if !h.cfg.EnableClimb {
		return
	}
	h.climb.sample(m.Now, m.WeightedIPC)
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Interface conformance checks.
var (
	_ hybrid.Policy        = (*Hydrogen)(nil)
	_ hybrid.Swapper       = (*Hydrogen)(nil)
	_ hybrid.Lazy          = (*Hydrogen)(nil)
	_ hybrid.EpochListener = (*Hydrogen)(nil)
)

package hybrid

import "github.com/hydrogen-sim/hydrogen/internal/memory/dram"

// Owner is a way's allocation class: who is allowed to fill into it.
type Owner uint8

// Way ownership classes.
const (
	OwnerShared Owner = iota // any requester may allocate
	OwnerCPU
	OwnerGPU
)

// String names the owner class.
func (o Owner) String() string {
	switch o {
	case OwnerCPU:
		return "CPU"
	case OwnerGPU:
		return "GPU"
	default:
		return "shared"
	}
}

// WayView is the controller's read-only view of one way of a set, handed
// to policies for victim selection and swap decisions. LastUse is the
// way's recency stamp, which compares only with the other ways of its
// set: lower is older, and two ways touched in the same cycle are equal.
type WayView struct {
	Valid   bool
	Dirty   bool
	Busy    bool        // an in-flight fill targets this way; never evict it
	LastUse uint64      // recency stamp within the set
	Tag     uint64      // block index currently cached
	Src     dram.Source // which processor inserted the block
}

// Policy decides how the hybrid memory's resources are shared between
// the CPU and GPU. The baseline designs of the paper (no partitioning,
// WayPart, HAShCache, Profess) and Hydrogen itself all implement it.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string

	// WayGroup maps way w of set s to a fast-memory superchannel group.
	// This is the mapping that Hydrogen decouples (Fig. 3); conventional
	// designs couple it to the partitioning.
	WayGroup(set uint64, w int) int

	// Owner returns the current allocation class of way w of set s.
	Owner(set uint64, w int) Owner

	// Victim selects the way that a fill by src should replace, or -1 to
	// bypass the migration entirely. Ways with Busy set must not be
	// chosen.
	Victim(set uint64, ways []WayView, src dram.Source) int

	// AllowMigration is the slow-memory bandwidth gate, consulted after a
	// victim has been found. cost is the number of slow-memory block
	// transfers the migration implies (1 for a refill, 2 when a dirty
	// writeback or flat-mode swap is needed). now is the current cycle so
	// token-bucket policies can replenish lazily.
	AllowMigration(src dram.Source, cost uint64, now uint64) bool
}

// Swapper is implemented by policies that promote hot data into
// dedicated channels after a hit (Hydrogen's fast memory swap,
// Section IV-A). SwapTarget returns the way to swap the hit way with, or
// -1 for none. SwapIsFree models the "Ideal" variant of Fig. 7(a): the
// swap is performed architecturally but moves no data.
type Swapper interface {
	SwapTarget(set uint64, hitWay int, ways []WayView, src dram.Source) int
	SwapIsFree() bool
}

// Lazy is implemented by policies with lazy reconfiguration
// (Section IV-D): Misplaced reports that the block in way w no longer
// matches the way's allocation, so the controller invalidates it after
// the access completes.
type Lazy interface {
	Misplaced(set uint64, w int, view WayView) bool
}

// EpochMetrics is the feedback adaptive policies receive once per
// sampling epoch.
type EpochMetrics struct {
	Now         uint64
	Stats       Stats // controller counters, delta over the epoch
	CPUIPC      float64
	GPUIPC      float64
	WeightedIPC float64
}

// EpochListener is implemented by adaptive policies (Hydrogen's hill
// climbing, Profess' probabilistic adjustment).
type EpochListener interface {
	OnEpoch(m EpochMetrics)
}

// LRUVictim is the helper most policies use: the least-recently-used
// way among those where allowed returns true. Busy and invalid ways are
// handled (invalid allowed ways are preferred). Returns -1 when no way
// is allowed.
func LRUVictim(ways []WayView, allowed func(w int) bool) int {
	best := -1
	for i := range ways {
		if ways[i].Busy || !allowed(i) {
			continue
		}
		if !ways[i].Valid {
			return i
		}
		if best < 0 || ways[i].LastUse < ways[best].LastUse {
			best = i
		}
	}
	return best
}

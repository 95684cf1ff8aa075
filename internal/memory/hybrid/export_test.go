package hybrid

import "github.com/hydrogen-sim/hydrogen/internal/memory/dram"

// Hooks into the tag store for the external tests, which import the
// policies (and the policies import this package). Each applies to way
// w of set what the access path does to it, with the cycle given
// instead of read from the engine.

// StampMax is the largest recency stamp a way can hold.
const StampMax = stampMax

// TouchWay stamps way w as a fast hit at cycle now does.
func (c *Controller) TouchWay(set uint64, w int, now uint64) {
	c.set(set)[w].setStamp(c.stamp(set, now))
}

// InstallWay puts blk in way w as a migration by src at cycle now does.
func (c *Controller) InstallWay(set uint64, w int, blk uint64, src dram.Source, now uint64) {
	c.set(set)[w] = newWay(blk, src, c.stamp(set, now))
}

// SwapWays exchanges ways a and b as a fast memory swap does.
func (c *Controller) SwapWays(set uint64, a, b int) {
	ws := c.set(set)
	ws[a], ws[b] = ws[b], ws[a]
}

// InvalidateWay empties way w as a lazy invalidation does.
func (c *Controller) InvalidateWay(set uint64, w int) { c.set(set)[w] = way{} }

// SettleWay clears way w's busy flag as the end of its fill does.
func (c *Controller) SettleWay(set uint64, w int) { c.set(set)[w].meta &^= wayBusy }

// SetStamp overwrites way w's recency stamp.
func (c *Controller) SetStamp(set uint64, w int, st uint64) { c.set(set)[w].setStamp(st) }

// Views returns the policy view of set in the controller's reused
// buffer.
func (c *Controller) Views(set uint64) []WayView { return c.views(set) }

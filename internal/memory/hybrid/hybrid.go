// Package hybrid implements the hybrid memory controller at the heart of
// the paper's target architecture (Fig. 1): a fast HBM tier used as a
// set-associative cache (or flat swap space) in front of a slow DDR
// tier, managed through a remap table whose entries are cached in an
// on-chip remap cache. Partitioning decisions are delegated to a Policy.
//
// The controller models:
//   - remap metadata probing (remap-cache hits/misses, metadata reads),
//   - superchannel grouping: each 256 B block is striped as 64 B lines
//     over the physical channels of one fast group,
//   - block migration with its full traffic amplification (demand line,
//     refill of the remaining lines, dirty-victim readback + writeback),
//   - MSHRs that coalesce accesses to in-flight lines and blocks,
//   - fast memory swaps and lazy-reconfiguration invalidations,
//   - HAShCache-style chained probing for direct-mapped organizations.
package hybrid

import (
	"fmt"
	"math/bits"

	"github.com/hydrogen-sim/hydrogen/internal/bitmath"
	"github.com/hydrogen-sim/hydrogen/internal/caches"
	"github.com/hydrogen-sim/hydrogen/internal/container"
	"github.com/hydrogen-sim/hydrogen/internal/memory/dram"
	"github.com/hydrogen-sim/hydrogen/internal/sim"
)

// LineBytes is the access granularity of the processor side and of each
// physical memory channel (one LLC line).
const LineBytes = 64

// Mode selects how the fast tier is organized (Section II-A).
type Mode uint8

// Organization modes.
const (
	// ModeCache: the fast tier is a hardware-managed cache; the slow tier
	// holds the home copy of every block. Clean victims are dropped.
	ModeCache Mode = iota
	// ModeFlat: both tiers form one flat space; a migration swaps the
	// incoming block with the victim, so victims are always written back
	// and migrations always cost two block transfers.
	ModeFlat
)

// Config shapes the hybrid memory.
type Config struct {
	Mode              Mode
	BlockBytes        uint64 // data block (migration) granularity, default 256
	Assoc             int    // fast ways per set, default 4
	FastCapacityBytes uint64 // total fast-tier data capacity
	GroupSize         int    // physical fast channels per superchannel, default 4

	RemapCacheBytes  uint64 // on-chip remap cache capacity (default 256 kB)
	RemapCacheHitLat uint64 // metadata probe latency on a remap-cache hit
	ExtraTagLat      uint64 // extra per-probe latency (HAShCache at assoc>1)
	Chaining         bool   // HAShCache pseudo-associative chained probe

	// MaxInFlightFills bounds concurrent block migrations per source,
	// like a real controller's migration queue; misses beyond the bound
	// are served from the slow tier without migrating. Per-source bounds
	// keep one source from monopolizing the queue, and the bound itself
	// is a backstop against congestion collapse. Default 128.
	MaxInFlightFills int
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.BlockBytes == 0 {
		out.BlockBytes = 256
	}
	if out.Assoc == 0 {
		out.Assoc = 4
	}
	if out.GroupSize == 0 {
		out.GroupSize = 4
	}
	if out.RemapCacheBytes == 0 {
		out.RemapCacheBytes = 256 << 10
	}
	if out.RemapCacheHitLat == 0 {
		out.RemapCacheHitLat = 2
	}
	if out.MaxInFlightFills == 0 {
		out.MaxInFlightFills = 128
	}
	return out
}

// Validate reports whether the configuration is buildable.
func (c *Config) Validate() error {
	d := c.withDefaults()
	switch {
	case d.BlockBytes < LineBytes || d.BlockBytes&(d.BlockBytes-1) != 0:
		return fmt.Errorf("hybrid: block size %d invalid", d.BlockBytes)
	case d.Assoc <= 0:
		return fmt.Errorf("hybrid: assoc %d invalid", d.Assoc)
	case d.FastCapacityBytes == 0 || d.FastCapacityBytes%(d.BlockBytes*uint64(d.Assoc)) != 0:
		return fmt.Errorf("hybrid: fast capacity %d not a multiple of set size", d.FastCapacityBytes)
	case d.GroupSize <= 0:
		return fmt.Errorf("hybrid: group size %d invalid", d.GroupSize)
	}
	return nil
}

// Stats counts controller activity; the two-element arrays are indexed
// by dram.Source.
type Stats struct {
	Demand          [2]uint64 // processor-side accesses
	FastHits        [2]uint64
	SlowDemandReads [2]uint64
	SlowWrites      [2]uint64 // write misses sent straight to slow
	Migrations      [2]uint64
	Bypasses        [2]uint64 // victim found but migration not allowed
	NoVictim        [2]uint64 // policy declined to provide a victim
	FillQueueFull   [2]uint64 // migration skipped: fill queue at capacity
	Writebacks      [2]uint64 // dirty (or flat-mode) victim copybacks
	Swaps           uint64
	Misplaced       uint64 // lazy-reconfiguration invalidations
	LatencySum      [2]uint64
	RemapHits       uint64
	RemapMisses     uint64
	ChainProbes     uint64
	ChainHits       uint64
}

// Delta returns s - prev, counter-wise.
func (s Stats) Delta(prev Stats) Stats {
	d := s
	for i := 0; i < 2; i++ {
		d.Demand[i] -= prev.Demand[i]
		d.FastHits[i] -= prev.FastHits[i]
		d.SlowDemandReads[i] -= prev.SlowDemandReads[i]
		d.SlowWrites[i] -= prev.SlowWrites[i]
		d.Migrations[i] -= prev.Migrations[i]
		d.Bypasses[i] -= prev.Bypasses[i]
		d.NoVictim[i] -= prev.NoVictim[i]
		d.FillQueueFull[i] -= prev.FillQueueFull[i]
		d.Writebacks[i] -= prev.Writebacks[i]
		d.LatencySum[i] -= prev.LatencySum[i]
	}
	d.Swaps -= prev.Swaps
	d.Misplaced -= prev.Misplaced
	d.RemapHits -= prev.RemapHits
	d.RemapMisses -= prev.RemapMisses
	d.ChainProbes -= prev.ChainProbes
	d.ChainHits -= prev.ChainHits
	return d
}

// HitRate returns the fast-tier hit rate for src.
func (s Stats) HitRate(src dram.Source) float64 {
	if s.Demand[src] == 0 {
		return 0
	}
	return float64(s.FastHits[src]) / float64(s.Demand[src])
}

// AvgLatency returns the mean demand latency in cycles for src.
func (s Stats) AvgLatency(src dram.Source) float64 {
	if s.Demand[src] == 0 {
		return 0
	}
	return float64(s.LatencySum[src]) / float64(s.Demand[src])
}

// way is one fast-tier way's remap entry in one 8-byte word, so two
// 4-way sets share a 64-byte host cache line. The word packs a 16-bit
// recency stamp in its top bits, the block index above four flag bits,
// and the flags. Every simulated address comes from trace.Paged and is
// below 2^trace.AddrBits = 2^43, so even at the smallest block size
// (64 B) a block index is below 2^37 and blk<<wayTagShift stays below
// the stamp bits. An invalid way is the zero value.
type way struct {
	meta uint64 // stamp<<wayStampShift | blk<<wayTagShift | wayGPU | wayBusy | wayDirty | wayValid
}

const (
	wayValid uint64 = 1 << iota
	wayDirty
	wayBusy // fill in flight
	wayGPU  // inserted by dram.SourceGPU

	// wayState is the bits a tag probe ignores: findWay compares the
	// rest of meta against blk<<wayTagShift | wayValid.
	wayState = wayDirty | wayBusy | wayGPU | wayStampMask
)

const (
	// wayTagShift places the block index above the four flag bits.
	wayTagShift = 4
	// wayStampShift places the recency stamp in meta's top 16 bits.
	wayStampShift = 48
	wayStampMask  = uint64(stampMax) << wayStampShift
)

// stampMax is the largest recency stamp; a set whose next stamp would
// pass it is compacted first (see stamp).
const stampMax = 1<<16 - 1

// newWay is the entry of a block just installed by src: valid, with its
// fill in flight, and touched with recency stamp st.
func newWay(blk uint64, src dram.Source, st uint64) way {
	m := st<<wayStampShift | blk<<wayTagShift | wayValid | wayBusy
	if src == dram.SourceGPU {
		m |= wayGPU
	}
	return way{meta: m}
}

func (w *way) valid() bool         { return w.meta&wayValid != 0 }
func (w *way) dirty() bool         { return w.meta&wayDirty != 0 }
func (w *way) busy() bool          { return w.meta&wayBusy != 0 }
func (w *way) blk() uint64         { return (w.meta &^ wayStampMask) >> wayTagShift }
func (w *way) stamp() uint64       { return w.meta >> wayStampShift }
func (w *way) holds(b uint64) bool { return w.meta&^wayState == b<<wayTagShift|wayValid }

// setStamp gives w recency stamp st.
func (w *way) setStamp(st uint64) { w.meta = w.meta&^wayStampMask | st<<wayStampShift }

func (w *way) src() dram.Source {
	if w.meta&wayGPU != 0 {
		return dram.SourceGPU
	}
	return dram.SourceCPU
}

// fill is one in-flight block migration. Fill records live in a pooled
// slab on the controller and are addressed by slot index, so the DRAM
// completion callbacks can refer to them through a single context word
// instead of a captured closure.
type fill struct {
	blk       uint64
	set       uint64
	w         int32
	src       dram.Source
	ready     bool   // block data has arrived in the fill buffer
	remaining uint32 // fast-tier line writes still draining
	// Intrusive FIFO waiter list: indices into Controller.accs.
	whead, wtail int32
}

// copyRec is one in-flight block copy: a victim writeback to the slow
// home, or a swap move into way w of set. Like fills, copy records live
// in a pooled slab and completion callbacks address them by slot index.
type copyRec struct {
	blk       uint64
	set       uint64
	w         int32
	src       dram.Source
	remaining uint32 // line reads still outstanding
}

// metaBase places remap-table metadata in a distinct fast-tier address
// region so metadata reads do not alias data rows.
const metaBase = uint64(1) << 40

// fillBufferLat is the latency of serving a line out of the migration
// fill buffer (critical-line forwarding).
const fillBufferLat = 4

// setsPerMetaLine is how many sets' remap entries share one 64 B
// metadata line (a 4-way entry is ~16 B: four ~27-bit tags plus
// valid/dirty/alloc bits). Packing gives the remap cache spatial reach
// and gives streaming workloads row locality on metadata reads.
const setsPerMetaLine = 4

// Controller is the hybrid memory controller. All methods must be called
// from engine event context.
type Controller struct {
	eng  *sim.Engine
	cfg  Config
	fast *dram.Tier
	slow *dram.Tier
	pol  Policy

	// Optional policy capabilities, asserted once at construction so the
	// access path pays no per-request type switches.
	lazy    Lazy
	swapper Swapper

	numSets       uint64
	linesPerBlock uint64
	groups        int

	// Strength-reduced address decode, fixed at construction: block size
	// and lines-per-block are validated powers of two, so those reduce
	// to shifts; the remaining geometry divisors go through bitmath.Div
	// (shift/mask when pow2, hardware div otherwise).
	blockShift uint8
	blockMask  uint64 // BlockBytes - 1
	lpbShift   uint8  // log2(linesPerBlock)
	setDiv     bitmath.Div
	groupsDiv  bitmath.Div
	groupKDiv  bitmath.Div // GroupSize
	fastChDiv  bitmath.Div // len(fast.Channels)
	slowChDiv  bitmath.Div // len(slow.Channels)
	perWay     uint64      // BlockBytes / GroupSize

	ways  []way // numSets*Assoc remap entries, set-major
	remap *caches.Cache

	// Recency stamps (see stamp): the cycle of the latest touch, and the
	// sets touched in that cycle with the stamp each took.
	stampCycle uint64
	stamped    []touchedSet

	pendingFill container.Table // block index -> fill slab slot
	fills       []fill          // fill slab; freeFills indexes unused slots
	freeFills   []int32
	fillsBySrc  [2]int // in-flight fills per source

	copies     []copyRec // copy slab; freeCopies indexes unused slots
	freeCopies []int32

	pendingLine container.Table // line key -> packed waiter chain (head<<32 | tail)

	accs    []*[accChunk]access // access slab in fixed chunks; see acc
	accN    int32               // records carved from the chunks
	accFree int32               // free-list head, -1 = empty
	viewBuf []WayView           // reused policy-view buffer

	// Bound methods created once so hot-path events schedule without
	// allocating closures.
	probeFn        func(ctx, now uint64)
	metaReadFn     func(ctx, now uint64)
	finishFn       func(ctx, now uint64)
	lineDoneFn     func(ctx, now uint64)
	refillDoneFn   func(ctx, now uint64)
	fillLineDoneFn func(ctx, now uint64)
	wbLineDoneFn   func(ctx, now uint64)
	moveLineDoneFn func(ctx, now uint64)

	stats Stats
}

// access is the record of one processor-side access, from Access to
// finish. Records live in the accs slab and are addressed by index, so
// each event of the access path carries the index as its context word
// and runs one of three controller-bound callbacks (probe, metaRead,
// finish): the path allocates nothing. An access that waits on an
// in-flight line read or block fill is its own waiter node, chained
// through next; a free record is chained through next on the free list.
//
// No *access may be held across a call to finish or Access. finish
// frees the record and then runs done, and done may re-enter Access
// synchronously (a completed load's LLC fill writes a dirty victim
// back), which may reuse the record. Keep the index, and read what is
// still needed (such as next) before finish.
type access struct {
	start uint64
	blk   uint64
	set   uint64 // set being probed: the chained set on a chained hit
	line  uint64 // line within the block
	done  func(uint64)
	next  int32 // waiter chain or free list; -1 ends it
	way   int32 // a chained hit's way in set, or -1
	write bool
	src   dram.Source
}

// accChunk is how many access records one chunk of the slab holds:
// 256 records of 56 bytes fill the 14 336-byte allocation size class.
// The slab grows a chunk at a time and never copies a record, so its
// allocation is what the run's peak in-flight accesses need.
const accChunk = 256

// acc returns access record i.
func (c *Controller) acc(i int32) *access { return &c.accs[uint32(i)/accChunk][uint32(i)%accChunk] }

// newAccess takes a record off the free list, carving a new one when
// the list is empty, and returns its index.
func (c *Controller) newAccess() int32 {
	i := c.accFree
	if i < 0 {
		if c.accN%accChunk == 0 {
			c.accs = append(c.accs, new([accChunk]access))
		}
		c.accN++
		return c.accN - 1
	}
	c.accFree = c.acc(i).next
	return i
}

// finish completes access ai at t: it accounts the latency, frees the
// record and then runs done (see access for why in that order).
func (c *Controller) finish(ai, t uint64) {
	a := c.acc(int32(ai))
	c.stats.LatencySum[a.src] += t - a.start
	done := a.done
	*a = access{next: c.accFree} // drop the done reference
	c.accFree = int32(ai)
	if done != nil {
		done(t)
	}
}

// New builds a controller over the given tiers with the given policy.
func New(eng *sim.Engine, cfg Config, fast, slow *dram.Tier, pol Policy) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if len(fast.Channels)%cfg.GroupSize != 0 {
		return nil, fmt.Errorf("hybrid: %d fast channels not divisible into groups of %d",
			len(fast.Channels), cfg.GroupSize)
	}
	c := &Controller{
		eng:           eng,
		cfg:           cfg,
		fast:          fast,
		slow:          slow,
		pol:           pol,
		numSets:       cfg.FastCapacityBytes / (cfg.BlockBytes * uint64(cfg.Assoc)),
		linesPerBlock: cfg.BlockBytes / LineBytes,
		groups:        len(fast.Channels) / cfg.GroupSize,
		accFree:       -1,
	}
	c.blockShift = uint8(bits.TrailingZeros64(cfg.BlockBytes))
	c.blockMask = cfg.BlockBytes - 1
	c.lpbShift = uint8(bits.TrailingZeros64(c.linesPerBlock))
	c.setDiv = bitmath.New(c.numSets)
	c.groupsDiv = bitmath.NewInt(c.groups)
	c.groupKDiv = bitmath.NewInt(cfg.GroupSize)
	c.fastChDiv = bitmath.NewInt(len(fast.Channels))
	c.slowChDiv = bitmath.NewInt(len(slow.Channels))
	c.perWay = cfg.BlockBytes / uint64(cfg.GroupSize)
	c.lazy, _ = pol.(Lazy)
	c.swapper, _ = pol.(Swapper)
	c.viewBuf = make([]WayView, 0, cfg.Assoc)
	c.probeFn = c.probe
	c.metaReadFn = c.metaRead
	c.finishFn = c.finish
	c.lineDoneFn = c.lineDone
	c.refillDoneFn = c.refillDone
	c.fillLineDoneFn = c.fillLineDone
	c.wbLineDoneFn = c.wbLineDone
	c.moveLineDoneFn = c.moveLineDone
	c.ways = make([]way, c.numSets*uint64(cfg.Assoc))
	c.remap = caches.New(caches.Config{
		Name:       "remap",
		SizeBytes:  cfg.RemapCacheBytes,
		Assoc:      8,
		BlockBytes: LineBytes,
	})
	return c, nil
}

// NumSets returns the number of sets in the hybrid layout.
func (c *Controller) NumSets() uint64 { return c.numSets }

// Groups returns the number of fast superchannel groups.
func (c *Controller) Groups() int { return c.groups }

// Assoc returns the fast-tier associativity.
func (c *Controller) Assoc() int { return c.cfg.Assoc }

// Policy returns the active partitioning policy.
func (c *Controller) Policy() Policy { return c.pol }

// Stats returns a snapshot of the controller counters.
func (c *Controller) Stats() Stats { return c.stats }

// set returns set s's ways.
func (c *Controller) set(s uint64) []way {
	a := uint64(c.cfg.Assoc)
	return c.ways[s*a : (s+1)*a : (s+1)*a]
}

// views builds the policy-visible view of a set in the controller's
// reused buffer. The engine is single-threaded and no policy retains the
// slice, so one buffer serves every call.
func (c *Controller) views(set uint64) []WayView {
	buf := c.viewBuf[:0]
	ws := c.set(set)
	for i := range ws {
		w := &ws[i]
		buf = append(buf, WayView{
			Valid: w.valid(), Dirty: w.dirty(), Busy: w.busy(),
			LastUse: w.stamp(), Tag: w.blk(), Src: w.src(),
		})
	}
	c.viewBuf = buf
	return buf
}

// touchedSet is a set touched in the current cycle and the stamp it took.
type touchedSet struct {
	set, stamp uint64
}

// stamp returns the recency stamp of a touch (a fast hit or an install)
// of set at cycle now. Stamps order a set's ways as their last-use
// cycles would: a touch takes one above the set's highest stamp, unless
// the set was already touched in this cycle, when it takes that touch's
// stamp, since ways touched in one cycle tie. A set whose next stamp
// would pass stampMax is compacted first.
func (c *Controller) stamp(set, now uint64) uint64 {
	if now != c.stampCycle {
		c.stampCycle, c.stamped = now, c.stamped[:0]
	}
	for _, s := range c.stamped {
		if s.set == set {
			return s.stamp
		}
	}
	ws := c.set(set)
	top := topStamp(ws)
	if top == stampMax {
		top = compactStamps(ws)
	}
	c.stamped = append(c.stamped, touchedSet{set, top + 1})
	return top + 1
}

// topStamp returns the highest stamp of ws; invalid ways hold 0.
func topStamp(ws []way) uint64 {
	top := uint64(0)
	for i := range ws {
		top = max(top, ws[i].stamp())
	}
	return top
}

// compactStamps renumbers the stamps of ws as dense ranks from 1,
// keeping their order and their ties, and returns the highest. Ranks
// are taken in rising stamp order, and the r-th smallest distinct stamp
// is at least r, so a renumbered way never exceeds the stamps still to
// be renumbered and the scan for the next one skips it.
func compactStamps(ws []way) uint64 {
	var prev, rank uint64
	for {
		next := uint64(stampMax + 1)
		for i := range ws {
			if st := ws[i].stamp(); st > prev && st < next {
				next = st
			}
		}
		if next > stampMax {
			return rank
		}
		rank++
		for i := range ws {
			if ws[i].stamp() == next {
				ws[i].setStamp(rank)
			}
		}
		prev = next
	}
}

// newFill takes a fill record from the slab pool and registers it under
// blk, returning its slot index.
func (c *Controller) newFill(blk, set uint64, w int32, src dram.Source) int32 {
	var i int32
	if n := len(c.freeFills); n > 0 {
		i = c.freeFills[n-1]
		c.freeFills = c.freeFills[:n-1]
	} else {
		c.fills = append(c.fills, fill{})
		i = int32(len(c.fills) - 1)
	}
	c.fills[i] = fill{blk: blk, set: set, w: w, src: src, whead: -1, wtail: -1}
	c.pendingFill.Put(blk, int64(i))
	return i
}

// fillAddWaiter appends access ai to a fill's FIFO waiter chain.
func (c *Controller) fillAddWaiter(fi, ai int32) {
	f := &c.fills[fi]
	if f.wtail < 0 {
		f.whead = ai
	} else {
		c.acc(f.wtail).next = ai
	}
	f.wtail = ai
}

// Access is the processor-side entry point: one 64 B line request that
// missed the SRAC hierarchy. done (optional) runs at completion time.
func (c *Controller) Access(addr uint64, write bool, src dram.Source, done func(uint64)) {
	c.stats.Demand[src]++
	blk := addr >> c.blockShift
	set := c.setDiv.Mod(blk)
	ai := c.newAccess()
	*c.acc(ai) = access{
		start: c.eng.Now(), blk: blk, set: set, line: (addr & c.blockMask) / LineBytes,
		done: done, next: -1, way: -1, write: write, src: src,
	}
	c.withMeta(set, uint64(ai))
}

// metaLine returns the metadata line index holding a set's remap entry,
// and the fast channel + device address backing it. Lines stripe across
// all fast channels; consecutive lines on one channel are adjacent in
// the row, so sequential set scans get metadata row hits.
func (c *Controller) metaLine(set uint64) (line uint64, ch *dram.Channel, devAddr uint64) {
	line = set / setsPerMetaLine
	q, rem := c.fastChDiv.DivMod(line)
	ch = c.fast.Channels[rem]
	devAddr = metaBase + q*LineBytes
	return line, ch, devAddr
}

// withMeta models access ai's remap metadata probe of set: a
// remap-cache hit runs probe RemapCacheHitLat+ExtraTagLat cycles later;
// a miss first reads one metadata line from the fast tier (the remap
// table lives there), and metaRead continues when it arrives.
func (c *Controller) withMeta(set, ai uint64) {
	line, ch, devAddr := c.metaLine(set)
	if c.remap.Access(line*LineBytes, false) {
		c.stats.RemapHits++
		c.eng.AfterCtx(c.cfg.RemapCacheHitLat+c.cfg.ExtraTagLat, c.probeFn, ai)
		return
	}
	c.stats.RemapMisses++
	v := c.remap.Fill(line*LineBytes, false)
	if v.Valid && v.Dirty {
		// Written-back metadata entry: one fast-tier line write.
		_, wch, wAddr := c.metaLine(v.Addr / LineBytes * setsPerMetaLine)
		wch.Enqueue(dram.Request{Addr: wAddr, Bytes: LineBytes, Write: true, Source: dram.SourceCPU})
	}
	ch.Enqueue(dram.Request{Addr: devAddr, Bytes: LineBytes, Source: dram.SourceCPU, DoneCtx: c.metaReadFn, Ctx: ai})
}

// metaRead runs access ai's probe ExtraTagLat cycles after its metadata
// line arrives. Without a tag penalty it probes directly: a zero-delay
// event would run next anyway, since the engine drains lane 0 right
// after the late completion event that delivered the line.
func (c *Controller) metaRead(ai, now uint64) {
	if c.cfg.ExtraTagLat == 0 {
		c.probe(ai, now)
		return
	}
	c.eng.AfterCtx(c.cfg.ExtraTagLat, c.probeFn, ai)
}

// touchMeta marks the set's remap entry dirty so its eventual remap-cache
// eviction writes back.
func (c *Controller) touchMeta(set uint64) {
	line := set / setsPerMetaLine
	if c.remap.Contains(line * LineBytes) {
		c.remap.Access(line*LineBytes, true)
	}
}

// findWay returns the way of ws holding blk, or -1.
func findWay(ws []way, blk uint64) int {
	for i := range ws {
		if ws[i].holds(blk) {
			return i
		}
	}
	return -1
}

// probe looks up access ai's block once its set's metadata is known. A
// hit in the chained set records the way and probes that set's metadata
// too; the second probe lands here again and takes the hit.
func (c *Controller) probe(ai, _ uint64) {
	a := c.acc(int32(ai))
	if a.way >= 0 {
		c.hitPath(ai, int(a.way))
		return
	}
	w := findWay(c.set(a.set), a.blk)
	if w < 0 && c.cfg.Chaining {
		// HAShCache pseudo-associativity: probe the chained set too.
		c.stats.ChainProbes++
		chainSet := c.setDiv.Mod(a.set + 1)
		if cw := findWay(c.set(chainSet), a.blk); cw >= 0 {
			c.stats.ChainHits++
			// The chained probe costs a second metadata access.
			a.set, a.way = chainSet, int32(cw)
			c.withMeta(chainSet, ai)
			return
		}
	}
	if w >= 0 {
		c.hitPath(ai, w)
		return
	}
	c.missPath(ai)
}

// fastLineReq computes the physical channel and device address backing
// line `line` of way w of set s.
func (c *Controller) fastLineReq(set uint64, w int, blk, line uint64) (*dram.Channel, uint64) {
	g := c.groupsDiv.Mod(uint64(c.pol.WayGroup(set, w)))
	k := uint64(c.cfg.GroupSize)
	member := c.groupKDiv.Mod(line + blk)
	ch := c.fast.Channels[g*k+member]
	local := (set*uint64(c.cfg.Assoc)+uint64(w))*c.perWay + c.groupKDiv.Div(line)*LineBytes
	return ch, local
}

// slowLineReq computes the slow-tier channel and device address of line
// `line` of block blk (its home location).
func (c *Controller) slowLineReq(blk, line uint64) (*dram.Channel, uint64) {
	q, rem := c.slowChDiv.DivMod(blk)
	ch := c.slow.Channels[rem]
	addr := (q << c.blockShift) + line*LineBytes
	return ch, addr
}

// hitPath serves access ai from way w of its set.
func (c *Controller) hitPath(ai uint64, w int) {
	a := c.acc(int32(ai))
	blk, set, src := a.blk, a.set, a.src
	c.stats.FastHits[src]++
	wy := &c.set(set)[w]
	wy.setStamp(c.stamp(set, c.eng.Now()))
	if a.write {
		wy.meta |= wayDirty
		c.touchMeta(set)
	}
	if wy.busy() {
		// busy implies an in-flight fill; a way is only busy between
		// install (which registers the fill) and finishFill (which clears
		// busy and deregisters it in the same event), so the table lookup
		// is skipped entirely on the non-busy fast path.
		if fi, ok := c.pendingFill.Get(blk); ok {
			if c.fills[fi].ready {
				// Critical-line forwarding: the block sits in the fill
				// buffer; serve from there while the fast write-in drains.
				c.eng.AfterCtx(fillBufferLat, c.finishFn, ai)
				return
			}
			// Block data still in flight: wait for it.
			c.fillAddWaiter(int32(fi), int32(ai))
			return
		}
	}
	ch, addr := c.fastLineReq(set, w, blk, a.line)
	ch.Enqueue(dram.Request{Addr: addr, Bytes: LineBytes, Write: a.write, Source: src, DoneCtx: c.finishFn, Ctx: ai})
	c.afterHit(blk, set, w, src)
}

// afterHit applies the off-critical-path consequences of a fast hit:
// lazy-reconfiguration invalidation and fast memory swaps.
func (c *Controller) afterHit(blk, set uint64, w int, src dram.Source) {
	if c.lazy == nil && c.swapper == nil {
		return
	}
	ws := c.set(set)
	views := c.views(set)

	if c.lazy != nil && c.lazy.Misplaced(set, w, views[w]) {
		c.stats.Misplaced++
		wy := &ws[w]
		if wy.dirty() {
			c.writebackBlock(set, w, wy.blk(), src)
		}
		*wy = way{}
		c.touchMeta(set)
		return
	}

	if sw := c.swapper; sw != nil {
		if t := sw.SwapTarget(set, w, views, src); t >= 0 && t != w && !ws[t].busy() {
			c.stats.Swaps++
			a, b := ws[w], ws[t]
			if !sw.SwapIsFree() {
				// Read both blocks from their current groups, then write
				// them to each other's groups. Fast-tier traffic only.
				c.moveBlock(set, w, a.blk(), t, src)
				if b.valid() {
					c.moveBlock(set, t, b.blk(), w, src)
				}
			}
			ws[w], ws[t] = b, a
			c.touchMeta(set)
		}
	}
}

// newCopy takes a copy record from the slab pool for a block copy of
// blk whose line reads all complete before the record is freed.
func (c *Controller) newCopy(blk, set uint64, w int, src dram.Source) uint64 {
	var i int32
	if n := len(c.freeCopies); n > 0 {
		i = c.freeCopies[n-1]
		c.freeCopies = c.freeCopies[:n-1]
	} else {
		c.copies = append(c.copies, copyRec{})
		i = int32(len(c.copies) - 1)
	}
	c.copies[i] = copyRec{blk: blk, set: set, w: int32(w), src: src, remaining: uint32(c.linesPerBlock)}
	return uint64(i)
}

// copyLineRead counts down a copy's line reads; on the last one it frees
// the record and reports true.
func (c *Controller) copyLineRead(ci uint64) bool {
	r := &c.copies[ci]
	r.remaining--
	if r.remaining > 0 {
		return false
	}
	c.freeCopies = append(c.freeCopies, int32(ci))
	return true
}

// moveBlock reads a block from (set, fromWay) and writes it to (set,
// toWay), line by line, modelling swap traffic. Each line read carries
// its copy record and line number in Ctx; the write's channel is chosen
// when the read completes, under the way-to-group mapping of that time.
func (c *Controller) moveBlock(set uint64, fromWay int, blk uint64, toWay int, src dram.Source) {
	ci := c.newCopy(blk, set, toWay, src)
	for l := uint64(0); l < c.linesPerBlock; l++ {
		rch, raddr := c.fastLineReq(set, fromWay, blk, l)
		rch.Enqueue(dram.Request{Addr: raddr, Bytes: LineBytes, Source: src, Lo: true,
			DoneCtx: c.moveLineDoneFn, Ctx: ci<<c.lpbShift | l})
	}
}

// moveLineDone writes one moved line into its target way.
func (c *Controller) moveLineDone(ctx, _ uint64) {
	ci, l := ctx>>c.lpbShift, ctx&(c.linesPerBlock-1)
	r := c.copies[ci]
	wch, waddr := c.fastLineReq(r.set, int(r.w), r.blk, l)
	wch.Enqueue(dram.Request{Addr: waddr, Bytes: LineBytes, Write: true, Source: r.src, Lo: true})
	c.copyLineRead(ci)
}

// writebackBlock copies a (dirty or flat-mode) victim block from the
// fast tier to its slow-tier home: per-line reads from the fast group
// (the lines live on different physical channels), then one block-sized
// burst write to the slow channel once all lines have arrived.
func (c *Controller) writebackBlock(set uint64, w int, blk uint64, src dram.Source) {
	c.stats.Writebacks[src]++
	ci := c.newCopy(blk, set, w, src)
	for l := uint64(0); l < c.linesPerBlock; l++ {
		rch, raddr := c.fastLineReq(set, w, blk, l)
		rch.Enqueue(dram.Request{Addr: raddr, Bytes: LineBytes, Source: src, Lo: true,
			DoneCtx: c.wbLineDoneFn, Ctx: ci})
	}
}

// wbLineDone counts down a writeback's line reads and issues the slow
// burst write after the last one.
func (c *Controller) wbLineDone(ci, _ uint64) {
	r := c.copies[ci]
	if c.copyLineRead(ci) {
		wch, waddr := c.slowLineReq(r.blk, 0)
		wch.Enqueue(dram.Request{Addr: waddr, Bytes: c.cfg.BlockBytes, Write: true, Source: r.src, Lo: true})
	}
}

// missPath serves access ai, whose block is not in the fast tier.
func (c *Controller) missPath(ai uint64) {
	a := c.acc(int32(ai))
	blk, set, line, src := a.blk, a.set, a.line, a.src
	if a.write {
		// Write miss (an LLC writeback to an uncached block): write through
		// to the slow tier without allocating.
		c.stats.SlowWrites[src]++
		ch, addr := c.slowLineReq(blk, line)
		ch.Enqueue(dram.Request{Addr: addr, Bytes: LineBytes, Write: true, Source: src, DoneCtx: c.finishFn, Ctx: ai})
		return
	}

	// Coalesce with an in-flight fill of the same block.
	if fi, ok := c.pendingFill.Get(blk); ok {
		c.fillAddWaiter(int32(fi), int32(ai))
		return
	}

	// Demand read of the critical line from slow memory, coalesced with
	// identical in-flight line reads. Waiting accesses chain through
	// next; the table value packs the chain's head and tail indices.
	c.stats.SlowDemandReads[src]++
	key := blk<<c.lpbShift | line
	if packed, ok := c.pendingLine.Get(key); ok {
		c.acc(int32(packed)).next = int32(ai)
		c.pendingLine.Put(key, packed&^0xFFFFFFFF|int64(ai))
	} else {
		c.pendingLine.Put(key, int64(ai)<<32|int64(ai))
		ch, addr := c.slowLineReq(blk, line)
		ch.Enqueue(dram.Request{Addr: addr, Bytes: LineBytes, Source: src, DoneCtx: c.lineDoneFn, Ctx: key})
	}

	c.maybeMigrate(blk, set, src)
}

// lineDone completes a coalesced slow-tier line read: it finishes every
// access chained under the line key. A finished access's done cannot
// re-enter missPath for the same key synchronously (new accesses reach
// probe only through a later metadata event), so deleting before
// draining is safe; it can re-enter Access, which may reuse the record
// just freed, so each access's next is read before it finishes.
func (c *Controller) lineDone(key, t uint64) {
	packed, ok := c.pendingLine.Get(key)
	if !ok {
		return
	}
	c.pendingLine.Delete(key)
	for i := int32(packed >> 32); i >= 0; {
		next := c.acc(i).next
		c.finish(uint64(i), t)
		i = next
	}
}

// maybeMigrate runs the migration decision for a read miss: victim
// selection by the policy, then the slow-bandwidth gate, then the block
// refill (and victim handling) traffic.
func (c *Controller) maybeMigrate(blk, set uint64, src dram.Source) {
	if c.fillsBySrc[src] >= c.cfg.MaxInFlightFills {
		c.stats.FillQueueFull[src]++
		return
	}
	views := c.views(set)
	v := c.pol.Victim(set, views, src)
	if v < 0 {
		c.stats.NoVictim[src]++
		return
	}
	ws := c.set(set)
	victim := ws[v]

	cost := uint64(1)
	if c.cfg.Mode == ModeFlat {
		cost = 2 // a flat-mode migration is always a swap
	} else if victim.valid() && victim.dirty() {
		cost = 2
	}
	if !c.pol.AllowMigration(src, cost, c.eng.Now()) {
		c.stats.Bypasses[src]++
		return
	}
	c.stats.Migrations[src]++

	// Victim handling: dirty victims (cache mode) and every valid victim
	// (flat mode, where the fast copy is the only copy) go home to slow.
	if victim.valid() {
		if victim.dirty() || c.cfg.Mode == ModeFlat {
			c.writebackBlock(set, v, victim.blk(), src)
		}
	}

	// Install the new mapping immediately; data follows.
	ws[v] = newWay(blk, src, c.stamp(set, c.eng.Now()))
	c.touchMeta(set)
	fi := c.newFill(blk, set, int32(v), src)
	c.fillsBySrc[src]++

	// Refill: one block-sized burst read from the slow channel (the
	// demand line was already requested separately — Fig. 4's critical
	// word), then per-line writes into the fast group's channels.
	// The refill read shares demand priority: starving it would only
	// convert future hits into yet more demand misses.
	rch, raddr := c.slowLineReq(blk, 0)
	rch.Enqueue(dram.Request{Addr: raddr, Bytes: c.cfg.BlockBytes, Source: src, DoneCtx: c.refillDoneFn, Ctx: uint64(fi)})
}

// refillDone runs when a migration's block read arrives in the fill
// buffer: serve everyone waiting on it now (critical-line forwarding)
// and drain the write-in off the critical path.
func (c *Controller) refillDone(fi, t uint64) {
	f := &c.fills[fi]
	f.ready = true
	wy := &c.set(f.set)[f.w]
	for i := f.whead; i >= 0; i = c.acc(i).next {
		if c.acc(i).write && wy.holds(f.blk) {
			wy.meta |= wayDirty
		}
		c.eng.AfterCtx(fillBufferLat, c.finishFn, uint64(i))
	}
	f.whead, f.wtail = -1, -1
	f.remaining = uint32(c.linesPerBlock)
	for l := uint64(0); l < c.linesPerBlock; l++ {
		wch, waddr := c.fastLineReq(f.set, int(f.w), f.blk, l)
		wch.Enqueue(dram.Request{Addr: waddr, Bytes: LineBytes, Write: true, Source: f.src, Lo: true,
			DoneCtx: c.fillLineDoneFn, Ctx: fi})
	}
}

// fillLineDone counts down the fast-tier line writes of a migration.
func (c *Controller) fillLineDone(fi, t uint64) {
	f := &c.fills[fi]
	f.remaining--
	if f.remaining == 0 {
		c.finishFill(int32(fi), t)
	}
}

func (c *Controller) finishFill(fi int32, t uint64) {
	f := &c.fills[fi]
	blk := f.blk
	c.pendingFill.Delete(blk)
	c.fillsBySrc[f.src]--
	wy := &c.set(f.set)[f.w]
	if wy.holds(blk) {
		wy.meta &^= wayBusy
	}
	for i := f.whead; i >= 0; i = c.acc(i).next {
		// Serve waiters from the freshly filled fast block.
		a := c.acc(i)
		ch, addr := c.fastLineReq(f.set, int(f.w), blk, a.line)
		if a.write && wy.holds(blk) {
			wy.meta |= wayDirty
		}
		ch.Enqueue(dram.Request{Addr: addr, Bytes: LineBytes, Write: a.write, Source: a.src, DoneCtx: c.finishFn, Ctx: uint64(i)})
	}
	f.whead, f.wtail = -1, -1
	c.freeFills = append(c.freeFills, fi)
}

// InvalidateAll drops every cached block, writing back dirty data. It is
// used by tests and by reconfiguration experiments that model flush-based
// repartitioning.
func (c *Controller) InvalidateAll() {
	a := c.cfg.Assoc
	for i := range c.ways {
		wy := &c.ways[i]
		if wy.valid() && wy.dirty() {
			c.writebackBlock(uint64(i/a), i%a, wy.blk(), wy.src())
		}
		*wy = way{}
	}
}

// Occupancy returns how many valid blocks each source holds in the fast
// tier; useful for tests and capacity analyses.
func (c *Controller) Occupancy() (cpu, gpu uint64) {
	for i := range c.ways {
		wy := &c.ways[i]
		if !wy.valid() {
			continue
		}
		if wy.src() == dram.SourceCPU {
			cpu++
		} else {
			gpu++
		}
	}
	return cpu, gpu
}

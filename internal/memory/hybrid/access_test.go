package hybrid

import (
	"testing"
	"unsafe"

	"github.com/hydrogen-sim/hydrogen/internal/memory/dram"
	"github.com/hydrogen-sim/hydrogen/internal/sim"
	"github.com/hydrogen-sim/hydrogen/internal/trace"
)

// TestWaySize pins a remap entry at 8 bytes: two 4-way sets share one
// 64-byte host cache line, and the tag store is 8 bytes per fast way
// (512 KB of a 16 MB fast tier's system.New).
func TestWaySize(t *testing.T) {
	if got := unsafe.Sizeof(way{}); got != 8 {
		t.Fatalf("way is %d bytes, want 8", got)
	}
}

// TestTagBelowStamp checks the bound the remap entry's layout relies
// on: the largest address trace.Paged returns, at the smallest valid
// block size (one 64 B line), gives a block index below 2^44, so
// blk<<wayTagShift stays below the stamp bits, and a way holding that
// block keeps its tag, flags and stamp apart.
func TestTagBelowStamp(t *testing.T) {
	if small := (Config{FastCapacityBytes: 1 << 20, BlockBytes: LineBytes / 2}); small.Validate() == nil {
		t.Fatalf("block size %d below a line accepted", small.BlockBytes)
	}
	maxBlk := uint64(1<<trace.AddrBits-1) / LineBytes
	if maxBlk >= 1<<44 || maxBlk<<wayTagShift >= 1<<wayStampShift {
		t.Fatalf("block index %#x reaches the stamp bits", maxBlk)
	}
	w := newWay(maxBlk, dram.SourceGPU, stampMax)
	w.meta |= wayDirty
	if !w.holds(maxBlk) || w.holds(maxBlk-1) || w.blk() != maxBlk || w.stamp() != stampMax ||
		!w.valid() || !w.dirty() || !w.busy() || w.src() != dram.SourceGPU {
		t.Fatalf("way %#x: block %#x, stamp %d", w.meta, w.blk(), w.stamp())
	}
	w.setStamp(1)
	if !w.holds(maxBlk) || w.blk() != maxBlk || w.stamp() != 1 || !w.dirty() || !w.busy() {
		t.Fatalf("restamped way %#x: block %#x, stamp %d", w.meta, w.blk(), w.stamp())
	}
}

// TestAccessChunkSize pins an access-slab chunk at 14 336 bytes, one
// allocation size class, so a chunk wastes nothing to rounding.
func TestAccessChunkSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit targets")
	}
	if got := unsafe.Sizeof([accChunk]access{}); got != 14336 {
		t.Fatalf("access chunk is %d bytes, want 14336", got)
	}
}

// The white-box tests below follow access records through the
// controller's internals. They cannot use internal/policy, which imports
// this package, so they run under lruPolicy.

// lruPolicy is a minimal Policy: LRU victims over every way, and
// migrations for CPU misses only, so GPU misses bypass and coalesce on
// their line reads.
type lruPolicy struct{ groups int }

func (lruPolicy) Name() string                                     { return "lru" }
func (p lruPolicy) WayGroup(_ uint64, w int) int                   { return w % p.groups }
func (lruPolicy) Owner(uint64, int) Owner                          { return OwnerShared }
func (lruPolicy) AllowMigration(src dram.Source, _, _ uint64) bool { return src == dram.SourceCPU }

func (lruPolicy) Victim(_ uint64, ways []WayView, _ dram.Source) int {
	return LRUVictim(ways, anyWay)
}

func anyWay(int) bool { return true }

// fastCfg is the fast tier of the tests: HBM2E cut to 8 channels.
func fastCfg() dram.Config {
	f := dram.HBM2E()
	f.Channels = 8
	return f
}

func newController(t *testing.T, cfg Config) (*sim.Engine, *Controller, *dram.Tier) {
	t.Helper()
	eng := sim.New()
	fast, err := dram.NewTier(eng, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	slow, err := dram.NewTier(eng, dram.DDR4())
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(eng, cfg, fast, slow, lruPolicy{groups: 2})
	if err != nil {
		t.Fatal(err)
	}
	return eng, c, slow
}

// lineAddr is the address of line l of block blk.
func (c *Controller) lineAddr(blk, l uint64) uint64 { return blk<<c.blockShift + l*LineBytes }

// checkAllFree fails unless every record of the access slab is on the
// free list exactly once and holds no done reference.
func checkAllFree(t *testing.T, c *Controller) {
	t.Helper()
	seen := make([]bool, c.accN)
	n := int32(0)
	for i := c.accFree; i >= 0; i = c.acc(i).next {
		if seen[i] {
			t.Fatalf("record %d is on the free list twice", i)
		}
		seen[i] = true
		if c.acc(i).done != nil {
			t.Fatalf("free record %d still holds its done", i)
		}
		n++
	}
	if n != c.accN {
		t.Fatalf("free list holds %d of %d records", n, c.accN)
	}
}

// TestChainedHit places a block in the set its home set's probe chains
// into (HAShCache, direct-mapped) and reads it: the access takes two
// metadata probes and is served from the chained set.
func TestChainedHit(t *testing.T) {
	cfg := Config{FastCapacityBytes: 1 << 20, RemapCacheBytes: 8 << 10, Assoc: 1, Chaining: true}
	eng, c, slow := newController(t, cfg)
	blk := 7 * c.numSets // home set 0
	c.set(1)[0] = way{meta: blk<<wayTagShift | wayValid}
	var fired []uint64
	c.Access(c.lineAddr(blk, 2), false, dram.SourceCPU, func(now uint64) { fired = append(fired, now) })
	eng.Run()

	s := c.Stats()
	if s.ChainProbes != 1 || s.ChainHits != 1 {
		t.Fatalf("chain probes %d, hits %d; want 1 and 1", s.ChainProbes, s.ChainHits)
	}
	// Sets 0 and 1 share metadata line 0: the home probe misses the
	// remap cache and reads the line, the chained probe hits.
	if s.RemapMisses != 1 || s.RemapHits != 1 {
		t.Fatalf("remap misses %d, hits %d; want one each (two probes)", s.RemapMisses, s.RemapHits)
	}
	if s.FastHits[dram.SourceCPU] != 1 || s.SlowDemandReads[dram.SourceCPU] != 0 || slow.Stats().Reads != 0 {
		t.Fatalf("fast hits %d, slow demand reads %d, slow reads %d; want 1, 0, 0",
			s.FastHits[dram.SourceCPU], s.SlowDemandReads[dram.SourceCPU], slow.Stats().Reads)
	}
	// The metadata line (channel 0) and the data line (way 0 of set 1,
	// group 0, channel (2+blk) mod 4 = 2) are each read from an idle
	// channel with the bank closed.
	f := fastCfg()
	read := f.TRCD + f.TCAS + LineBytes/f.BytesPerCycle
	want := read + 2 /* default RemapCacheHitLat */ + read
	if len(fired) != 1 || fired[0] != want {
		t.Fatalf("done ran at %v, want once at %d", fired, want)
	}
	// The hit took the chained set's way and gave it its set's newest
	// stamp.
	if hit := c.set(1)[0]; !hit.holds(blk) || hit.stamp() == 0 || hit.stamp() != topStamp(c.set(1)) || c.set(0)[0] != (way{}) {
		t.Fatalf("chained way %+v, home way %+v; want the hit on the chained way, with its set's newest stamp", hit, c.set(0)[0])
	}
	if s.LatencySum[dram.SourceCPU] != want {
		t.Fatalf("latency sum %d, want %d", s.LatencySum[dram.SourceCPU], want)
	}
	if c.accN != 1 {
		t.Fatalf("access slab holds %d records, want 1", c.accN)
	}
	checkAllFree(t, c)
}

// lifetimeRig drives TestAccessRecordLifetime's rounds. Its callbacks
// are bound once, so a round allocates nothing of its own.
type lifetimeRig struct {
	t    *testing.T
	eng  *sim.Engine
	c    *Controller
	n    uint64 // rounds run
	hBlk uint64 // resident block, hit every round

	blkA, blkB uint64
	phase      int
	start      uint64

	waitAt, readyAt    uint64 // issue ticks of A's two fill hits
	minWaitLat         uint64 // of the hit that waited on the fill
	minReady, maxReady uint64 // of the hit served from the fill buffer
	completed, issued  int

	pollFn                    func(ctx, now uint64)
	done, waitDone, readyDone func(uint64)
}

func newLifetimeRig(t *testing.T) *lifetimeRig {
	eng, c, _ := newController(t, Config{FastCapacityBytes: 1 << 20, RemapCacheBytes: 8 << 10})
	r := &lifetimeRig{t: t, eng: eng, c: c, hBlk: c.numSets - 1, minWaitLat: ^uint64(0), minReady: ^uint64(0)}
	r.pollFn = r.poll
	r.done = func(uint64) { r.completed++ }
	r.waitDone = func(now uint64) {
		r.completed++
		r.minWaitLat = min(r.minWaitLat, now-r.waitAt)
	}
	r.readyDone = func(now uint64) {
		r.completed++
		lat := now - r.readyAt
		r.minReady, r.maxReady = min(r.minReady, lat), max(r.maxReady, lat)
	}
	return r
}

func (r *lifetimeRig) access(blk, line uint64, src dram.Source, done func(uint64)) {
	r.issued++
	r.c.Access(r.c.lineAddr(blk, line), false, src, done)
}

// round reads, at its first tick: the resident block H (remap hit,
// fast hit); line 0 of new blocks A and B, which share a metadata line
// no recent round touched (A: remap miss, B: remap hit), and both
// migrate; and line 0 of a new block G twice from the GPU, whose
// migration is refused, so the second read coalesces on the first's
// line. poll adds the fill cases as the fills progress.
func (r *lifetimeRig) round() {
	c := r.c
	base := (1+r.n)*c.numSets + 4*(r.n%200)
	r.blkA, r.blkB = base, base+1
	r.phase, r.start = 0, r.eng.Now()
	r.access(r.hBlk, 0, dram.SourceCPU, r.done)
	r.access(r.blkA, 0, dram.SourceCPU, r.done)
	r.access(r.blkB, 0, dram.SourceCPU, r.done)
	r.access(base+2, 0, dram.SourceGPU, r.done)
	r.access(base+2, 0, dram.SourceGPU, r.done)
	r.eng.AfterCtx(1, r.pollFn, 0)
	r.eng.Run()
	r.n++
}

// poll runs every tick of a round until it has issued:
//   - once both fills are registered, a read of A's line 1, which hits
//     A's busy way and waits on its fill, and a read of B's line 1 after
//     B's way is dropped mid-fill (as InvalidateAll would drop it), which
//     misses and coalesces on B's fill;
//   - once A's block data is in the fill buffer, a read of A's line 2,
//     served from there.
func (r *lifetimeRig) poll(_, now uint64) {
	c := r.c
	if now-r.start > 5000 {
		r.t.Errorf("round %d stuck in phase %d", r.n, r.phase)
		return
	}
	switch r.phase {
	case 0:
		fa, okA := c.pendingFill.Get(r.blkA)
		fb, okB := c.pendingFill.Get(r.blkB)
		if okA && okB {
			r.waitAt = now
			r.access(r.blkA, 1, dram.SourceCPU, r.waitDone)
			f := &c.fills[fb]
			c.set(f.set)[f.w] = way{}
			r.access(r.blkB, 1, dram.SourceCPU, r.done)
			if c.fills[fa].ready {
				r.t.Errorf("round %d: A's fill ready before the wait case", r.n)
			}
			r.phase++
		}
	case 1:
		fa, ok := c.pendingFill.Get(r.blkA)
		if !ok {
			r.t.Errorf("round %d: A's fill finished unseen", r.n)
			return
		}
		if c.fills[fa].ready {
			r.readyAt = now
			r.access(r.blkA, 2, dram.SourceCPU, r.readyDone)
			return
		}
	}
	r.eng.AfterCtx(1, r.pollFn, 0)
}

// TestAccessRecordLifetime runs steady-state rounds that take every kind
// of access record through the controller — remap hit and miss, fast
// hit, a miss coalesced on a line, a miss coalesced on a fill, hits that
// wait on a fill and that are served from a ready one — and checks that
// a round allocates nothing and that every record comes back to the free
// list exactly once.
func TestAccessRecordLifetime(t *testing.T) {
	r := newLifetimeRig(t)
	for i := 0; i < 50; i++ {
		r.round()
	}
	c := r.c
	before, slowBefore := c.Stats(), c.slow.Stats()
	issued, completed := r.issued, r.completed
	if n := testing.AllocsPerRun(100, r.round); n != 0 {
		t.Fatalf("a round allocates %.1f times, want 0", n)
	}
	d := c.Stats().Delta(before)
	rounds := r.n - 50
	cpu, gpu := dram.SourceCPU, dram.SourceGPU

	// Per round: CPU H, A0, B0, A1, B1, A2 and GPU G0 twice.
	if d.Demand[cpu] != 6*rounds || d.Demand[gpu] != 2*rounds {
		t.Fatalf("demand %v over %d rounds, want 6 and 2 per round", d.Demand, rounds)
	}
	// Hits: H, and A1 and A2 on A's busy way.
	if d.FastHits[cpu] != 3*rounds || d.FastHits[gpu] != 0 {
		t.Fatalf("fast hits %v over %d rounds, want 3 CPU per round", d.FastHits, rounds)
	}
	// Demand reads: A0, B0 and both G0; B1 neither hit nor read, so it
	// coalesced on B's fill.
	if d.SlowDemandReads[cpu] != 2*rounds || d.SlowDemandReads[gpu] != 2*rounds {
		t.Fatalf("slow demand reads %v over %d rounds, want 2 and 2 per round", d.SlowDemandReads, rounds)
	}
	if d.Migrations[cpu] != 2*rounds || d.Bypasses[gpu] != 2*rounds {
		t.Fatalf("migrations %v, bypasses %v over %d rounds", d.Migrations, d.Bypasses, rounds)
	}
	// Slow reads: A's and B's demand lines and refills, and one read for
	// both G0s, which coalesced on their line.
	if reads := c.slow.Stats().Reads - slowBefore.Reads; reads != 5*rounds {
		t.Fatalf("slow reads %d over %d rounds, want 5 per round", reads, rounds)
	}
	if d.RemapMisses < rounds || d.RemapHits < 5*rounds {
		t.Fatalf("remap misses %d, hits %d over %d rounds", d.RemapMisses, d.RemapHits, rounds)
	}
	// A2 is served from the fill buffer: its probe (a remap hit) plus
	// the buffer's latency. A1 waited for the block to arrive.
	if want := c.cfg.RemapCacheHitLat + fillBufferLat; r.minReady != want || r.maxReady != want {
		t.Fatalf("fill-buffer hits took %d-%d cycles, want %d", r.minReady, r.maxReady, want)
	}
	if r.minWaitLat <= c.cfg.RemapCacheHitLat+fillBufferLat {
		t.Fatalf("a hit waiting on a fill took %d cycles, no longer than a fill-buffer hit", r.minWaitLat)
	}
	if r.issued-issued != 8*int(rounds) || r.completed-completed != r.issued-issued {
		t.Fatalf("%d accesses completed of %d issued", r.completed-completed, r.issued-issued)
	}
	if r.eng.Pending() != 0 || c.pendingLine.Len() != 0 || c.pendingFill.Len() != 0 {
		t.Fatalf("after the drain: %d events, %d line reads, %d fills pending",
			r.eng.Pending(), c.pendingLine.Len(), c.pendingFill.Len())
	}
	checkAllFree(t, c)
}

// chainLen returns the length of the waiter chain from head and whether
// it links a record of a chunk past the first.
func (c *Controller) chainLen(head int32) (n int, pastFirst bool) {
	for i := head; i >= 0; i = c.acc(i).next {
		n++
		pastFirst = pastFirst || i >= accChunk
	}
	return n, pastFirst
}

// TestAccessesAcrossChunks puts more accesses in flight at once than
// one chunk of the access slab holds: a chained HAShCache hit, GPU reads
// of one line, which coalesce on its line read (the policy refuses GPU
// migrations), and CPU reads of one block, which migrates, so the reads
// that probe after its fill is registered wait on the fill. Both waiter
// chains link records of both chunks; every access must finish exactly
// once and every record come back to the free list.
func TestAccessesAcrossChunks(t *testing.T) {
	cfg := Config{FastCapacityBytes: 1 << 20, RemapCacheBytes: 8 << 10, Assoc: 1, Chaining: true}
	eng, c, _ := newController(t, cfg)
	xBlk := 7 * c.numSets // home set 0
	c.set(1)[0] = way{meta: xBlk<<wayTagShift | wayValid}
	gBlk, aBlk := 9*c.numSets+64, 11*c.numSets+128

	const per = 150
	fired := make([]int, 0, 2*per+1)
	issue := func(blk, line uint64, src dram.Source) {
		id := len(fired)
		fired = append(fired, 0)
		c.Access(c.lineAddr(blk, line), false, src, func(uint64) { fired[id]++ })
	}
	issue(xBlk, 2, dram.SourceCPU)
	for k := uint64(0); k < per; k++ {
		issue(gBlk, 0, dram.SourceGPU)
		issue(aBlk, k%c.linesPerBlock, dram.SourceCPU)
	}
	if c.accN != 2*per+1 || len(c.accs) != 2 {
		t.Fatalf("%d records in %d chunks, want %d in 2", c.accN, len(c.accs), 2*per+1)
	}

	var lineChain, fillChain int
	var lineCrosses, fillCrosses bool
	for eng.Step() {
		if packed, ok := c.pendingLine.Get(gBlk << c.lpbShift); ok {
			n, cross := c.chainLen(int32(packed >> 32))
			lineChain, lineCrosses = max(lineChain, n), lineCrosses || cross
		}
		if fi, ok := c.pendingFill.Get(aBlk); ok {
			n, cross := c.chainLen(c.fills[fi].whead)
			fillChain, fillCrosses = max(fillChain, n), fillCrosses || cross
		}
	}
	// Every GPU read chains on the line; every CPU read but the one that
	// started the migration waits on the fill.
	if lineChain != per || !lineCrosses || fillChain != per-1 || !fillCrosses {
		t.Fatalf("longest line chain %d (second chunk %v), fill chain %d (second chunk %v); want %d and %d, both across chunks",
			lineChain, lineCrosses, fillChain, fillCrosses, per, per-1)
	}
	if s := c.Stats(); s.ChainHits != 1 {
		t.Fatalf("chain hits %d, want 1", s.ChainHits)
	}
	for id, n := range fired {
		if n != 1 {
			t.Fatalf("access %d finished %d times, want once", id, n)
		}
	}
	if c.accN != 2*per+1 {
		t.Fatalf("slab grew to %d records after the drain, want %d", c.accN, 2*per+1)
	}
	if c.pendingLine.Len() != 0 || c.pendingFill.Len() != 0 {
		t.Fatalf("after the drain: %d line reads, %d fills pending", c.pendingLine.Len(), c.pendingFill.Len())
	}
	checkAllFree(t, c)
}

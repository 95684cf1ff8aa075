// Package dram models DRAM channels with bank/row timing, FR-FCFS
// scheduling, bandwidth occupancy, and energy accounting. It is the
// substrate both tiers of the hybrid memory are built on: HBM2E/HBM3 as
// the fast tier and DDR4 as the slow tier (Table I of the paper).
//
// The model is request-level: a channel owns a queue and a set of banks;
// each request pays row-buffer preparation latency (CAS on a row hit,
// RCD+CAS on an empty row, RP+RCD+CAS on a conflict) plus data-bus burst
// occupancy. Bandwidth contention emerges from bus serialization and
// queueing, which is the effect the paper's partitioning schemes target.
//
// The scheduler is FR-FCFS over the schedWindow oldest waiting
// requests, so a channel keeps only its oldest requests where the
// scheduler reads them: a fixed slice of windowCap entries with a head
// offset, from which taking a request shifts just the older requests
// of the scheduling window. An arrival that finds no free slot at the
// slice's end, and too many waiting requests to compact the slice
// cheaply, waits in a backlog, a FIFO of fixed-size chunks drawn from
// and returned to one free list shared by the channels of a Tier. When
// a take leaves fewer than schedWindow requests in the slice, it is
// compacted and refilled from the backlog in bulk, so whenever the
// backlog is non-empty the scheduler sees the same schedWindow oldest
// requests as over one unbounded queue. Queue memory then follows the
// tier's simultaneous backlog, not the sum of every channel's peak, and
// a channel under a standing backlog allocates nothing.
//
// A channel schedules all of its work as late events under a key fixed
// at construction, so at any tick DRAM work runs after the tick's core,
// cache and hybrid-controller work, completions before issues, channels
// in construction order. That same-tick order is a property of the
// model that the golden result fingerprints pin.
package dram

import (
	"fmt"
	"math/bits"

	"github.com/hydrogen-sim/hydrogen/internal/bitmath"
	"github.com/hydrogen-sim/hydrogen/internal/sim"
)

// Source identifies which processor issued a request. The scheduler and
// the statistics both distinguish the two, because every policy in the
// paper treats CPU and GPU traffic differently.
type Source uint8

// Request sources.
const (
	SourceCPU Source = iota
	SourceGPU
	numSources
)

// String returns "CPU" or "GPU".
func (s Source) String() string {
	if s == SourceCPU {
		return "CPU"
	}
	return "GPU"
}

// Config describes one kind of DRAM device. All timings are in cycles of
// the global 1600 MHz controller clock.
type Config struct {
	Name            string
	Channels        int    // number of physical channels of this kind
	BanksPerChannel int    // ranks x banks, flattened
	RowBytes        uint64 // row-buffer size per bank
	TRCD            uint64 // activate-to-read
	TCAS            uint64 // read latency after activation
	TRP             uint64 // precharge
	BytesPerCycle   uint64 // data-bus throughput per channel

	// Energy model (Table I): dynamic pJ/bit for data movement, a fixed
	// cost per activate/precharge pair, and background (static) power
	// expressed per channel per cycle.
	ReadPJPerBit     float64
	WritePJPerBit    float64
	ActPrePJ         float64
	StaticPJPerCycle float64

	// CPUPriority makes the scheduler always prefer CPU requests over GPU
	// requests regardless of row state. HAShCache uses this.
	CPUPriority bool

	// MaxStarve bounds FR-FCFS starvation: once the oldest queued request
	// has waited this many cycles, it is scheduled next regardless of row
	// state, as in real controllers' starvation counters. 0 selects the
	// default of 200 cycles.
	MaxStarve uint64
}

func (c *Config) maxStarve() uint64 {
	if c.MaxStarve == 0 {
		return 200
	}
	return c.MaxStarve
}

// Validate reports whether the configuration is internally consistent.
func (c *Config) Validate() error {
	switch {
	case c.Channels <= 0:
		return fmt.Errorf("dram %s: Channels = %d, must be positive", c.Name, c.Channels)
	case c.BanksPerChannel <= 0:
		return fmt.Errorf("dram %s: BanksPerChannel = %d, must be positive", c.Name, c.BanksPerChannel)
	case c.RowBytes == 0 || c.RowBytes&(c.RowBytes-1) != 0:
		return fmt.Errorf("dram %s: RowBytes = %d, must be a power of two", c.Name, c.RowBytes)
	case c.BytesPerCycle == 0:
		return fmt.Errorf("dram %s: BytesPerCycle must be positive", c.Name)
	}
	return nil
}

// HBM2E returns the fast-tier preset from Table I: 16 channels x 1 rank x
// 16 banks at 1600 MHz, RCD-CAS-RP 23-23-23, 6.4 pJ/bit, ACT/PRE 15 nJ.
// Each channel moves 32 B/cycle (3.2 Gb/s/pin, 128-bit channel).
func HBM2E() Config {
	return Config{
		Name:             "HBM2E",
		Channels:         16,
		BanksPerChannel:  16,
		RowBytes:         1024,
		TRCD:             23,
		TCAS:             23,
		TRP:              23,
		BytesPerCycle:    32,
		ReadPJPerBit:     6.4,
		WritePJPerBit:    6.4,
		ActPrePJ:         15000,
		StaticPJPerCycle: 100,
	}
}

// HBM3 returns the Fig. 5(b) fast-tier preset: HBM2E with doubled
// per-channel bandwidth and scaled timing parameters.
func HBM3() Config {
	c := HBM2E()
	c.Name = "HBM3"
	c.BytesPerCycle = 64
	c.TRCD, c.TCAS, c.TRP = 21, 21, 21
	c.ReadPJPerBit, c.WritePJPerBit = 5.6, 5.6
	return c
}

// DDR4 returns the slow-tier preset from Table I: DDR4-3200 with 4
// channels x 2 ranks x 16 banks, RCD-CAS-RP 22-22-22, 33 pJ/bit.
// Each channel moves 16 B/cycle (64-bit bus, double data rate).
func DDR4() Config {
	return Config{
		Name:             "DDR4",
		Channels:         4,
		BanksPerChannel:  32,
		RowBytes:         2048,
		TRCD:             22,
		TCAS:             22,
		TRP:              22,
		BytesPerCycle:    16,
		ReadPJPerBit:     33,
		WritePJPerBit:    33,
		ActPrePJ:         15000,
		StaticPJPerCycle: 300,
	}
}

// Request is a single transfer on one channel, passed by value so the
// hot path never heap-allocates request records; Enqueue copies what
// the channel needs into its queue. DoneCtx (or Done) runs at the
// completion time.
type Request struct {
	Addr   uint64
	Bytes  uint64
	Write  bool
	Source Source
	// Lo marks background traffic (migration refills, writebacks, swap
	// copies): the scheduler serves demand requests first, as real
	// memory controllers prioritize demand over prefetch/migration.
	Lo bool
	// DoneCtx is the completion callback: a long-lived bound function
	// invoked as DoneCtx(Ctx, now), Ctx naming the issuer's record (an
	// access, a fill, a copy) so issuing allocates no closure. Done is
	// the closure form, for drivers of a channel alone; the simulator's
	// components do not set it. The channel parks a Done closure in a
	// slot until the request completes, and completes it through a
	// DoneCtx-form callback of its own with the same key and order. At
	// most one of Done and DoneCtx may be set.
	Done    func(now uint64)
	DoneCtx func(ctx, now uint64)
	Ctx     uint64
}

// queued is a waiting request as a channel's window and backlog hold
// it, in 48 bytes: one completion form instead of two and the decoded
// bank and row instead of the address, where a Request plus its
// arrival, bank and row took 72. Channels stand hundreds of requests
// deep under contention, so the entry's size sets the size of the
// backlog chunks. done and ctx are the completion (for a Done-form
// request, the channel's slot callback and slot index); bank and row
// are decoded once at enqueue so the FR-FCFS pick() scan compares open
// rows without re-dividing per entry.
type queued struct {
	done      func(ctx, now uint64)
	ctx       uint64
	arrive    uint64
	row       int64
	bytes     uint64
	bank      int32
	write, lo bool
	src       Source
}

// windowCap is the capacity of a channel's window slice, allocated on
// its first Enqueue. It is several times schedWindow, so a refill moves
// tens of backlog entries at once and a queue up to windowCap deep
// (BenchmarkChannelThroughput's batches) never reaches the backlog.
const windowCap = 64

// chunkLen is a backlog chunk's entry count: 63 entries and the link
// fill the 3 072-byte allocation size class.
const chunkLen = 63

// chunk is a run of backlog entries, linked oldest to newest in a
// channel's backlog and through next in its pool's free list. Every
// entry that leaves a chunk is zeroed, so a chunk in the free list
// holds no completion references.
type chunk struct {
	next *chunk
	q    [chunkLen]queued
}

// chunkPool is the free list the channels of one Tier draw their
// backlog chunks from. Chunks are never released, so a pool grows to
// its tier's peak simultaneous backlog.
type chunkPool struct {
	free   *chunk
	chunks int // chunks allocated
}

func (p *chunkPool) get() *chunk {
	k := p.free
	if k == nil {
		p.chunks++
		return new(chunk)
	}
	p.free, k.next = k.next, nil
	return k
}

func (p *chunkPool) put(k *chunk) {
	k.next, p.free = p.free, k
}

// doneSlots parks the Done closures of a channel's requests from
// Enqueue until completion, in a slab whose free slots are chained
// through next. A channel builds it on its first Done-form request.
type doneSlots struct {
	slots    []doneSlot
	free     int32                  // -1 = empty
	complete func(slot, now uint64) // run, bound once
}

type doneSlot struct {
	fn   func(now uint64)
	next int32
}

// park stores fn in a free slot, growing the slab when none is free,
// and returns the slot's index.
func (d *doneSlots) park(fn func(now uint64)) uint64 {
	i := d.free
	if i < 0 {
		d.slots = append(d.slots, doneSlot{fn: fn})
		return uint64(len(d.slots) - 1)
	}
	d.free = d.slots[i].next
	d.slots[i].fn = fn
	return uint64(i)
}

// run frees slot i and then runs its closure, which may enqueue again.
func (d *doneSlots) run(i, now uint64) {
	fn := d.slots[i].fn
	d.slots[i] = doneSlot{next: d.free}
	d.free = int32(i)
	fn(now)
}

type bank struct {
	openRow  int64  // -1 when closed
	actReady uint64 // earliest time the next activate may start (crude tRAS)
}

// Stats aggregates one channel's activity. Energy is in picojoules.
type Stats struct {
	Reads, Writes           uint64
	BytesRead, BytesWritten uint64
	RowHits, RowMisses      uint64
	Activations             uint64
	QueueDelaySum           uint64 // cycles from arrival to data start
	ServiceSum              uint64 // cycles from arrival to completion
	BusBusyCycles           uint64
	DynamicPJ               float64

	// Per-source breakdowns, used by the policies and the energy figure.
	ReqsBySource  [2]uint64
	BytesBySource [2]uint64
	DelayBySource [2]uint64 // completion-arrival sums
}

// Add accumulates other into s (for summing channels into a tier).
func (s *Stats) Add(other *Stats) {
	s.Reads += other.Reads
	s.Writes += other.Writes
	s.BytesRead += other.BytesRead
	s.BytesWritten += other.BytesWritten
	s.RowHits += other.RowHits
	s.RowMisses += other.RowMisses
	s.Activations += other.Activations
	s.QueueDelaySum += other.QueueDelaySum
	s.ServiceSum += other.ServiceSum
	s.BusBusyCycles += other.BusBusyCycles
	s.DynamicPJ += other.DynamicPJ
	for i := range s.ReqsBySource {
		s.ReqsBySource[i] += other.ReqsBySource[i]
		s.BytesBySource[i] += other.BytesBySource[i]
		s.DelayBySource[i] += other.DelayBySource[i]
	}
}

// issueClassKey is OR-ed into the late-event key of issue events so that
// at any tick every completion (keyed by bare channel key) sorts before
// every issue event: a request that completes at t has left the bus
// before any channel picks new work at t.
const issueClassKey = 1 << 32

// Channel is one physical DRAM channel: a request queue, banks, and a
// data bus. It must only be used from the owning engine's event context.
type Channel struct {
	eng *sim.Engine
	cfg *Config
	id  int

	// The waiting requests, oldest first, are win[whead:] and then the
	// backlog: bhead.q[bfirst:] through btail.q[:bend], nback entries in
	// chunks from pool (see the package comment). bhead is nil when the
	// backlog is empty (btail is then stale), and while it is not,
	// win[whead:] holds at least schedWindow requests.
	win          []queued
	whead        int
	dones        *doneSlots // nil until the first Done-form request
	banks        []bank
	busBusyUntil uint64
	issueFn      func(_, now uint64) // issueEvent bound once, so arming never allocates
	key          uint64              // engine-unique late-event key, fixed at construction
	pool         *chunkPool
	bhead, btail *chunk
	bfirst, bend int
	nback        int // backlog entries

	// issueArmed shares rowShift's word. Channel is 368 bytes, in the
	// 384-byte allocation size class (TestChannelSize), whose objects
	// start on 64-byte cache-line boundaries as the 320-byte class's do.
	rowShift   uint8       // log2(RowBytes); row size is validated pow2
	issueArmed bool        // an issue event is pending (at most one is)
	bankDiv    bitmath.Div // strength-reduced division by BanksPerChannel
	bpcDiv     bitmath.Div // strength-reduced division by BytesPerCycle

	stats Stats
}

// lookahead bounds how far ahead of "now" the data bus may be reserved.
// It must cover the worst-case preparation latency (RP+RCD+CAS) so that
// command prep fully overlaps earlier bursts and streaming reaches bus
// bandwidth, while staying small enough that late-arriving row hits can
// still reorder ahead of queued conflicts.
func (c *Channel) lookahead() uint64 {
	return c.cfg.TRP + c.cfg.TRCD + c.cfg.TCAS
}

// NewChannel creates channel id of the given device kind on eng. The
// channel draws its late-event key from eng, so every channel built on
// the same engine gets a distinct key even across tiers. A channel
// built alone draws its backlog chunks from a pool of its own.
func NewChannel(eng *sim.Engine, cfg *Config, id int) *Channel {
	return newChannel(eng, cfg, id, new(chunkPool))
}

func newChannel(eng *sim.Engine, cfg *Config, id int, pool *chunkPool) *Channel {
	c := &Channel{
		eng: eng, cfg: cfg, id: id, pool: pool,
		banks:    make([]bank, cfg.BanksPerChannel),
		key:      eng.NextLateKey(),
		rowShift: uint8(bits.TrailingZeros64(cfg.RowBytes)),
		bankDiv:  bitmath.NewInt(cfg.BanksPerChannel),
		bpcDiv:   bitmath.New(cfg.BytesPerCycle),
	}
	c.issueFn = c.issueEvent
	for i := range c.banks {
		c.banks[i].openRow = -1
	}
	return c
}

// ID returns the channel index within its tier.
func (c *Channel) ID() int { return c.id }

// Config returns the device configuration this channel models.
func (c *Channel) Config() *Config { return c.cfg }

// Stats returns a snapshot of the channel counters.
func (c *Channel) Stats() Stats { return c.stats }

// QueueLen returns the number of requests waiting to issue.
func (c *Channel) QueueLen() int { return len(c.win) - c.whead + c.nback }

// Enqueue submits a request to the channel's scheduler queue. The
// channel picks it up at its next issue event: this tick's (no latency
// is added), which runs as a late event after the tick's core and cache
// work, or, while the bus is reserved beyond the lookahead, the first
// tick the reservation lets it issue.
func (c *Channel) Enqueue(r Request) {
	now := c.eng.Now()
	var q *queued
	if n := len(c.win); c.bhead == nil && n < cap(c.win) {
		c.win = c.win[:n+1]
		q = &c.win[n]
	} else {
		q = c.slot()
	}
	// Field by field, as slots are zeroed: a composite literal would be
	// built on the stack and then copied.
	q.done, q.ctx, q.arrive, q.bytes = r.DoneCtx, r.Ctx, now, r.Bytes
	q.write, q.lo, q.src = r.Write, r.Lo, r.Source
	if q.bytes == 0 {
		q.bytes = 64
	}
	q.bank, q.row = c.decode(r.Addr)
	if r.Done != nil {
		if c.dones == nil {
			c.dones = &doneSlots{free: -1}
			c.dones.complete = c.dones.run
		}
		q.done, q.ctx = c.dones.complete, c.dones.park(r.Done)
	}
	c.armIssue(now)
}

// slot returns the entry an arrival is written to when the window has
// no free slot at its end or the backlog is non-empty. The window is
// allocated on first use, and compacted when the backlog is empty and
// that frees at least as many slots as it moves, so compaction copies
// at most one entry per arrival. Otherwise the arrival joins the
// backlog, which takes a chunk from the pool when its tail chunk is
// full; the window then holds more than windowCap/2 waiting requests.
func (c *Channel) slot() *queued {
	switch {
	case c.win == nil:
		c.win = make([]queued, 0, windowCap)
	case c.bhead == nil && len(c.win)-c.whead <= c.whead:
		c.compact()
	default:
		if c.bhead == nil || c.bend == chunkLen {
			k := c.pool.get()
			if c.bhead == nil {
				c.bhead, c.bfirst = k, 0
			} else {
				c.btail.next = k
			}
			c.btail, c.bend = k, 0
		}
		c.bend++
		c.nback++
		return &c.btail.q[c.bend-1]
	}
	n := len(c.win)
	c.win = c.win[:n+1]
	return &c.win[n]
}

// compact moves the window's waiting requests to the front of its slice.
func (c *Channel) compact() {
	n := copy(c.win, c.win[c.whead:])
	clear(c.win[n:]) // release completion refs
	c.win, c.whead = c.win[:n], 0
}

// refill compacts the window and fills it from the backlog, a
// contiguous run of the head chunk at a time, until the slice is full
// or the backlog empty. Entries leaving a chunk are zeroed, and a
// drained chunk goes back to the pool.
func (c *Channel) refill() {
	c.compact()
	for c.bhead != nil && len(c.win) < cap(c.win) {
		k, end := c.bhead, chunkLen
		if k == c.btail {
			end = c.bend
		}
		run := k.q[c.bfirst:end]
		n := copy(c.win[len(c.win):cap(c.win)], run)
		clear(run[:n])
		c.win = c.win[:len(c.win)+n]
		c.bfirst += n
		c.nback -= n
		if c.bfirst == end {
			c.bhead, c.bfirst = k.next, 0
			c.pool.put(k)
		}
	}
}

// armIssue ensures an issue event is pending at the first tick from now
// at which the bus reservation lets a request issue. The bus is reserved
// only by issuing, and issuing first consumes the pending event, so while
// one is armed busBusyUntil is fixed and the pending event already sits
// at that tick (or at now): a channel has at most one pending issue
// event, and every issue event issues at least one request.
func (c *Channel) armIssue(now uint64) {
	if c.issueArmed {
		return
	}
	at := now
	if la := c.lookahead(); c.busBusyUntil > now+la {
		at = c.busBusyUntil - la
	}
	c.issueArmed = true
	c.eng.ScheduleLateCtx(at, issueClassKey|c.key, c.issueFn, 0)
}

// decode splits an address into its bank and row. It runs once per
// request at enqueue; the scheduler and service path read the cached
// fields.
func (c *Channel) decode(addr uint64) (bank int32, row int64) {
	t := addr >> c.rowShift
	q, rem := c.bankDiv.DivMod(t)
	return int32(rem), int64(q)
}

func (c *Channel) issueEvent(_, now uint64) {
	c.issueArmed = false
	c.tryIssue(now)
}

// schedWindow bounds how many queued requests the scheduler considers,
// like a real memory controller's finite transaction queue. Requests
// beyond the window wait in FCFS order.
const schedWindow = 16

// pick implements FR-FCFS with optional CPU priority: choose the oldest
// row-hitting request within the scheduling window; if none hits, the
// oldest request. With CPUPriority, CPU requests are considered strictly
// before GPU ones. It returns an index into the window's waiting
// requests (win[whead:]), which must not be empty.
func (c *Channel) pick(now uint64) int {
	window := c.win[c.whead:]
	// Starvation bound: the oldest request wins outright once it has
	// waited too long, so streaming row hits cannot lock out row misses.
	if now-window[0].arrive >= c.cfg.maxStarve() {
		return 0
	}
	best := -1
	bestRank := -1
	if len(window) > schedWindow {
		window = window[:schedWindow]
	}
	for i := range window {
		r := &window[i]
		// Rank: demand beats background, then (optionally) CPU beats
		// GPU, then row hits beat misses, then age (scan order).
		rank := 0
		if !r.lo {
			rank += 4
		}
		if c.cfg.CPUPriority && r.src == SourceCPU {
			rank += 2
		}
		if c.banks[r.bank].openRow == r.row {
			rank++
		}
		if rank > bestRank {
			best, bestRank = i, rank
		}
	}
	return best
}

func (c *Channel) tryIssue(now uint64) {
	for c.whead < len(c.win) {
		if c.busBusyUntil > now+c.lookahead() {
			c.armIssue(now)
			return
		}
		i := c.whead + c.pick(now)
		r := c.win[i]
		copy(c.win[c.whead+1:i+1], c.win[c.whead:i])
		c.win[c.whead] = queued{} // release completion refs
		c.whead++
		if c.bhead != nil {
			if len(c.win)-c.whead < schedWindow {
				c.refill()
			}
		} else if c.whead == len(c.win) {
			c.win, c.whead = c.win[:0], 0
		}
		c.service(&r, now)
	}
}

func (c *Channel) service(r *queued, now uint64) {
	b := &c.banks[r.bank]
	row := r.row

	// Row hits are bus-limited: the column command's CAS latency overlaps
	// earlier bursts. Activations additionally serialize on the bank.
	var dataReady uint64
	switch {
	case b.openRow == row:
		dataReady = now + c.cfg.TCAS
		c.stats.RowHits++
	case b.openRow < 0:
		act := now
		if b.actReady > act {
			act = b.actReady
		}
		dataReady = act + c.cfg.TRCD + c.cfg.TCAS
		c.stats.RowMisses++
		c.stats.Activations++
		c.stats.DynamicPJ += c.cfg.ActPrePJ
	default:
		act := now
		if b.actReady > act {
			act = b.actReady
		}
		dataReady = act + c.cfg.TRP + c.cfg.TRCD + c.cfg.TCAS
		c.stats.RowMisses++
		c.stats.Activations++
		c.stats.DynamicPJ += c.cfg.ActPrePJ
	}
	b.openRow = row

	burst := c.bpcDiv.Div(r.bytes + c.cfg.BytesPerCycle - 1)
	dataStart := dataReady
	if c.busBusyUntil > dataStart {
		dataStart = c.busBusyUntil
	}
	done := dataStart + burst
	c.busBusyUntil = done
	b.actReady = dataStart

	c.stats.BusBusyCycles += burst
	c.stats.QueueDelaySum += dataStart - r.arrive
	c.stats.ServiceSum += done - r.arrive
	bits := float64(r.bytes * 8)
	if r.write {
		c.stats.Writes++
		c.stats.BytesWritten += r.bytes
		c.stats.DynamicPJ += bits * c.cfg.WritePJPerBit
	} else {
		c.stats.Reads++
		c.stats.BytesRead += r.bytes
		c.stats.DynamicPJ += bits * c.cfg.ReadPJPerBit
	}
	c.stats.ReqsBySource[r.src]++
	c.stats.BytesBySource[r.src] += r.bytes
	c.stats.DelayBySource[r.src] += done - r.arrive

	if r.done != nil {
		c.eng.ScheduleLateCtx(done, c.key, r.done, r.ctx)
	}
}

// Tier is a group of channels of the same device kind.
type Tier struct {
	Cfg      Config
	Channels []*Channel
}

// NewTier builds cfg.Channels channels on eng, which draw their
// backlog chunks from one shared pool.
func NewTier(eng *sim.Engine, cfg Config) (*Tier, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Tier{Cfg: cfg}
	t.Channels = make([]*Channel, cfg.Channels)
	pool := new(chunkPool)
	for i := range t.Channels {
		t.Channels[i] = newChannel(eng, &t.Cfg, i, pool)
	}
	return t, nil
}

// Stats sums the per-channel statistics of the tier.
func (t *Tier) Stats() Stats {
	var s Stats
	for _, c := range t.Channels {
		cs := c.Stats()
		s.Add(&cs)
	}
	return s
}

// StaticPJ returns the background energy of the whole tier over the
// given number of cycles.
func (t *Tier) StaticPJ(cycles uint64) float64 {
	return float64(cycles) * t.Cfg.StaticPJPerCycle * float64(len(t.Channels))
}

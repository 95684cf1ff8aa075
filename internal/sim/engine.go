// Package sim provides the discrete-event simulation engine that drives
// every component of the Hydrogen system model. Components schedule
// callbacks at absolute times; the engine executes them in time order
// (ties broken by scheduling order, so runs are deterministic).
//
// A callback has one form, fn(ctx, now): a long-lived bound function
// plus one context word, usually the slab index of the record the
// callback acts on (an in-flight access, a fill, a copy). Scheduling one
// therefore allocates no closure, and an event is two words.
//
// The scheduler is a timing wheel: events within span ticks of "now" go
// into a per-tick bucket (O(1) schedule and pop, the overwhelmingly
// common case — cache latencies and core wake-ups are all well under the
// span), while far-future events (the epoch ticks) wait in a small
// overflow heap and are promoted into the wheel as time approaches them.
// Buckets are value slices whose capacity is reused across ticks, so
// steady-state scheduling allocates nothing.
//
// Alongside the wheel ("lane 0", FIFO within a tick) the engine has a
// late lane: events ordered by (time, key, scheduling order) that run
// after every lane-0 event of their tick. The DRAM channels schedule all
// of their work there — issue events and completion deliveries — so at
// any tick memory work runs after all other work of that tick, in an
// order set by the components' keys rather than by when the callbacks
// were scheduled. That same-tick order is part of the model: the golden
// result fingerprints pin it (DESIGN.md §8, "Same-tick order"). The late
// lane is a second wheel of the same span whose buckets are kept sorted
// by key, with its own overflow heap beyond that span. Its entries take
// the same fn(ctx, now) form plus the key, three words.
package sim

import "math/bits"

const (
	// span is how many ticks ahead of now each wheel covers; events at
	// now+span or later wait in their lane's overflow heap. In 1.2 M-cycle
	// system.Quick() runs of all twelve combos, lane-0 work lands at most
	// 80 ticks ahead and DRAM completions, the farthest late work, at most
	// 144 (prep + queueing behind the bus lookahead + burst), so only the
	// epoch ticks overflow.
	span = 256
	// bucketCap and lateBucketCap are each bucket's initial capacity,
	// carved from one slab when a wheel is built. Without it every fresh
	// engine re-grows all bucket slices from nil (tens of thousands of
	// small allocations per simulation run); buckets that ever exceed it
	// reallocate individually and keep the larger capacity. In a 1.2 M-
	// cycle system.Quick() run of C1 or C5, 99.5 % of late inserts land
	// in a tick holding at most 8 events and none in one past 21. A late
	// cap of 16 (a 96 KB slab of 24-byte events) therefore regrows only a
	// few buckets: each such run allocates 87-102 KB less than at 32,
	// and 48-54 KB less than at 8, where regrowth outweighs the smaller
	// slab. The short serving job (TestFootprintCeilings) is the
	// exception: it allocates 26 KB more at 16 than at 8 (705 against
	// 679 KB), and 96 KB less than at 32. Lane 0 stays at 8: at 4 every
	// such run allocates 13-18 KB more; at 16 C1 runs allocate 25 KB
	// less, but C5 runs 31-36 KB more and the short serving job 8 KB
	// more.
	bucketCap     = 8
	lateBucketCap = 16
)

// event is a lane-0 entry: fn(ctx, now). It stores neither its time
// nor a sequence number: one in a wheel bucket fires at the tick the
// bucket stands for (the engine's now when it runs), and scheduling
// order is the bucket's order. Only the overflow heaps need both
// (farEvent). At two words it keeps the wheel's slab at 32 KB and the
// schedule-path copies small.
type event struct {
	ctx uint64
	fn  func(ctx, now uint64)
}

// lateEvent is one late-wheel entry: fn(ctx, now) and its key. Within
// a tick, late events run after all lane-0 events, in key order; events
// that share a key run in scheduling order. The key is assigned by the
// scheduling component (see NextLateKey) and makes same-tick order a
// property of the simulated system rather than of scheduling order.
type lateEvent struct {
	key, ctx uint64
	fn       func(ctx, now uint64)
}

// farEvent is an event beyond its wheel's span. Both overflow heaps
// hold late-lane entries and order them by (at, key, seq); a lane-0
// event rides with key 0, so its order is (at, seq). seq is the
// scheduling order that bucket order gives the wheels implicitly.
type farEvent struct {
	lateEvent
	at, seq uint64
}

// farHeap is a min-heap of farEvents, hand-rolled over a value slice
// rather than container/heap because interface boxing would allocate
// per push.
type farHeap []farEvent

func (h farHeap) less(i, j int) bool {
	a, b := &h[i], &h[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

func (h *farHeap) push(ev farEvent) {
	*h = append(*h, ev)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			return
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

// pop removes and returns the minimum, which must exist.
func (h *farHeap) pop() farEvent {
	s := *h
	ev := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s[last] = farEvent{} // release callback references for the GC
	s = s[:last]
	*h = s
	for i := 0; ; {
		l := 2*i + 1
		if l >= last {
			break
		}
		j := l
		if r := l + 1; r < last && s.less(r, l) {
			j = r
		}
		if !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	return ev
}

func (h *farHeap) clear() {
	clear(*h)
	*h = (*h)[:0]
}

// bucket holds the events of a single tick; events[head:] have yet to
// run. Capacity is reused once the bucket drains.
type bucket[T any] struct {
	events []T
	head   int
}

// wheel is a ring of per-tick buckets covering [now, now+span) with an
// occupancy bitmap (bit set iff the bucket holds an event that has not
// run), so the next busy tick is a few TrailingZeros64 calls away.
// Every event in it lies within one span of now, so a slot never holds
// two ticks at once. The zero value is empty; init allocates it.
type wheel[T any] struct {
	buckets  []bucket[T]
	occupied []uint64
	mask     uint64
	n        int // events held
}

func (w *wheel[T]) init(span, capacity int) {
	w.buckets = make([]bucket[T], span)
	w.occupied = make([]uint64, span/64)
	w.mask = uint64(span - 1)
	slab := make([]T, span*capacity)
	for i := range w.buckets {
		w.buckets[i].events, slab = slab[:0:capacity], slab[capacity:]
	}
}

// add returns tick's bucket for an insert, counted and marked occupied.
func (w *wheel[T]) add(tick uint64) *bucket[T] {
	i := tick & w.mask
	w.occupied[i>>6] |= 1 << (i & 63)
	w.n++
	return &w.buckets[i]
}

// ready reports whether tick's bucket holds an event that has not run.
// tick must be the engine's now.
func (w *wheel[T]) ready(tick uint64) bool {
	if w.n == 0 {
		return false
	}
	b := &w.buckets[tick&w.mask]
	return b.head < len(b.events)
}

// pop removes and returns the next event of tick's bucket, which must
// be ready. A bucket that empties is reset for reuse; a callback may
// refill it.
func (w *wheel[T]) pop(tick uint64) T {
	i := tick & w.mask
	b := &w.buckets[i]
	ev := b.events[b.head]
	var zero T
	b.events[b.head] = zero // release callback references for the GC
	b.head++
	if b.head == len(b.events) {
		b.events = b.events[:0]
		b.head = 0
		w.occupied[i>>6] &^= 1 << (i & 63)
	}
	w.n--
	return ev
}

// next returns the earliest tick holding an event. It must only be
// called when n > 0: every event lies in [now, now+span), so the first
// occupied bucket at or after now's slot (wrapping) is the earliest.
func (w *wheel[T]) next(now uint64) uint64 {
	p := now & w.mask
	word := int(p >> 6)
	// Bits at or after p within its word.
	if b := w.occupied[word] >> (p & 63); b != 0 {
		return now + uint64(bits.TrailingZeros64(b))
	}
	words := len(w.occupied)
	for off := 1; off <= words; off++ {
		i := (word + off) & (words - 1)
		if b := w.occupied[i]; b != 0 {
			slot := uint64(i<<6 + bits.TrailingZeros64(b))
			return now + ((slot - p) & w.mask)
		}
	}
	panic("sim: next on empty wheel")
}

func (w *wheel[T]) clear() {
	for i := range w.buckets {
		b := &w.buckets[i]
		clear(b.events[b.head:])
		b.events = b.events[:0]
		b.head = 0
	}
	clear(w.occupied)
	w.n = 0
}

// Engine is a single-threaded discrete-event scheduler. The zero value is
// ready to use at time 0.
//
// Invariant: each overflow heap holds only events at or beyond its
// wheel's span from now. Time changes only in advance, which promotes,
// so a direct schedule into a bucket always comes after every overflow
// event of that tick (which was scheduled earlier) has been promoted.
type Engine struct {
	now    uint64
	seq    uint64 // overflow-heap tie-breaker
	nsteps uint64

	wheel    wheel[event] // lane 0, FIFO per tick
	overflow farHeap      // lane-0 events at now+span or later

	late         wheel[lateEvent] // late lane, key-sorted per tick
	lateOverflow farHeap          // late events at now+span or later
	lateKeys     uint64           // NextLateKey allocator
}

// New returns a fresh engine at time zero.
func New() *Engine { return &Engine{} }

// Now returns the current simulation time in cycles.
func (e *Engine) Now() uint64 { return e.now }

// Steps returns the number of events executed so far (useful for
// profiling and runaway detection in tests).
func (e *Engine) Steps() uint64 { return e.nsteps }

// Pending returns the number of events still queued.
func (e *Engine) Pending() int {
	return e.wheel.n + len(e.overflow) + e.late.n + len(e.lateOverflow)
}

// ScheduleCtx runs fn(ctx, at) at absolute time at. Scheduling in the
// past panics: it always indicates a component bug that would silently
// corrupt timing.
func (e *Engine) ScheduleCtx(at uint64, fn func(ctx, now uint64), ctx uint64) {
	if at < e.now {
		panic("sim: scheduling event in the past")
	}
	if at-e.now < span {
		e.wheelInsert(at, event{ctx: ctx, fn: fn})
	} else {
		e.overflow.push(farEvent{lateEvent: lateEvent{ctx: ctx, fn: fn}, at: at, seq: e.seq})
		e.seq++
	}
}

// AfterCtx runs fn(ctx, now+delay) delay cycles from now.
func (e *Engine) AfterCtx(delay uint64, fn func(ctx, now uint64), ctx uint64) {
	e.ScheduleCtx(e.now+delay, fn, ctx)
}

// NextLateKey allocates an engine-unique late-lane key. Components that
// schedule late events (DRAM channels) take one key each at build time,
// so their same-tick order is their construction order.
func (e *Engine) NextLateKey() uint64 {
	k := e.lateKeys
	e.lateKeys++
	return k
}

// ScheduleLateCtx runs fn(ctx, at) at time at on the late lane: after
// every lane-0 event of that tick, ordered among late events by key and
// then by scheduling order. Scheduling in the past panics, as in
// ScheduleCtx.
func (e *Engine) ScheduleLateCtx(at, key uint64, fn func(ctx, now uint64), ctx uint64) {
	if at < e.now {
		panic("sim: scheduling late event in the past")
	}
	ev := lateEvent{key: key, ctx: ctx, fn: fn}
	if at-e.now < span {
		e.lateInsert(at, ev)
	} else {
		e.lateOverflow.push(farEvent{lateEvent: ev, at: at, seq: e.seq})
		e.seq++
	}
}

func (e *Engine) wheelInsert(at uint64, ev event) {
	if e.wheel.buckets == nil {
		e.wheel.init(span, bucketCap)
	}
	b := e.wheel.add(at)
	b.events = append(b.events, ev)
}

// lateInsert places ev into its tick's bucket by a stable insertion
// sort over the events that have yet to run, so equal keys keep
// scheduling order. At the running tick, an event whose key sorts
// before the one now running lands at the bucket head and runs next —
// exactly what a (time, key, seq) min-heap would pop next.
func (e *Engine) lateInsert(at uint64, ev lateEvent) {
	if e.late.buckets == nil {
		e.late.init(span, lateBucketCap)
	}
	b := e.late.add(at)
	b.events = append(b.events, lateEvent{})
	j := len(b.events) - 1
	for j > b.head && b.events[j-1].key > ev.key {
		b.events[j] = b.events[j-1]
		j--
	}
	b.events[j] = ev
}

// advance moves time to t and promotes the overflow events that have
// come within their wheel's span. The heaps pop in (at, key, seq)
// order, so promoted events enter their buckets in scheduling order.
func (e *Engine) advance(t uint64) {
	e.now = t
	for len(e.overflow) > 0 && e.overflow[0].at-t < span {
		ev := e.overflow.pop()
		e.wheelInsert(ev.at, event{ctx: ev.ctx, fn: ev.fn})
	}
	for len(e.lateOverflow) > 0 && e.lateOverflow[0].at-t < span {
		ev := e.lateOverflow.pop()
		e.lateInsert(ev.at, ev.lateEvent)
	}
}

// nextWork returns the earliest time holding a pending event in either
// lane.
func (e *Engine) nextWork() (uint64, bool) {
	var n uint64
	ok := true
	switch {
	case e.wheel.n > 0:
		n = e.wheel.next(e.now)
	case len(e.overflow) > 0:
		n = e.overflow[0].at
	default:
		ok = false
	}
	var l uint64
	switch {
	case e.late.n > 0:
		l = e.late.next(e.now)
	case len(e.lateOverflow) > 0:
		l = e.lateOverflow[0].at
	default:
		return n, ok
	}
	if !ok || l < n {
		return l, true
	}
	return n, true
}

// drainWheel runs the current tick's lane-0 bucket to empty. Callbacks
// may append to the bucket (zero-delay schedules), so readiness is
// re-checked every iteration.
func (e *Engine) drainWheel() {
	for e.wheel.ready(e.now) {
		ev := e.wheel.pop(e.now)
		e.nsteps++
		ev.fn(ev.ctx, e.now)
	}
}

// runTick executes every event at the current tick in lane order: all
// lane-0 events first (FIFO), then late events in key order. A late
// event may schedule lane-0 work at the same tick (a completion
// continuing inline), so lane 0 is re-drained after every late event:
// that follow-up runs before the next late event of the tick, as the
// hybrid controller expects.
func (e *Engine) runTick() {
	e.drainWheel()
	for e.late.ready(e.now) {
		ev := e.late.pop(e.now)
		e.nsteps++
		ev.fn(ev.ctx, e.now)
		e.drainWheel()
	}
}

// Step executes the next event, if any, advancing time to it.
// It reports whether an event was executed.
func (e *Engine) Step() bool {
	next, ok := e.nextWork()
	if !ok {
		return false
	}
	if next != e.now {
		e.advance(next)
	}
	e.nsteps++
	if e.wheel.ready(e.now) {
		ev := e.wheel.pop(e.now)
		ev.fn(ev.ctx, e.now)
	} else {
		ev := e.late.pop(e.now)
		ev.fn(ev.ctx, e.now)
	}
	return true
}

// RunUntil executes events until the queue is empty or the next event is
// at or beyond t; time is then advanced to exactly t.
//
// The loop works tick-at-a-time (nextWork, then runTick) rather than
// event-at-a-time: promotion runs only when now advances, because
// promotion eligibility (at-now < span) cannot change while now stands
// still — a callback's direct schedule lands in a wheel precisely when
// it would be promotable, and its overflow pushes are not.
func (e *Engine) RunUntil(t uint64) {
	for {
		next, ok := e.nextWork()
		if !ok || next >= t {
			break
		}
		if next != e.now {
			e.advance(next)
		}
		e.runTick()
	}
	if e.now < t {
		e.advance(t)
	}
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// Stop discards every pending event (both lanes, wheels and overflow),
// releasing their callback references. Time, the step counter, and the
// sequence counter are preserved, and the engine remains usable: new
// events may be scheduled and run afterwards. Components with in-flight
// state are NOT notified; Stop is for abandoning a simulation, not
// pausing it.
func (e *Engine) Stop() {
	e.wheel.clear()
	e.overflow.clear()
	e.late.clear()
	e.lateOverflow.clear()
}

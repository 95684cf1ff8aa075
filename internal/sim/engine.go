// Package sim provides the discrete-event simulation engine that drives
// every component of the Hydrogen system model. Components schedule
// callbacks at absolute times; the engine executes them in time order
// (ties broken by scheduling order, so runs are deterministic).
//
// The scheduler is a timing wheel: events within wheelSpan ticks of
// "now" go into a per-tick bucket (O(1) schedule and pop, the
// overwhelmingly common case — cache latencies and core wake-ups are
// all well under the span), while far-future events (epoch ticks, long
// backoffs) wait in a small overflow heap and are promoted into the
// wheel as time approaches them. Buckets are value slices whose capacity
// is reused across ticks, so steady-state scheduling allocates nothing.
//
// Alongside the wheel ("lane 0", FIFO within a tick) the engine has a
// late lane: events ordered by (time, key, scheduling order) that run
// after every lane-0 event of their tick. The DRAM channels schedule all
// of their work there — issue events and completion deliveries — so at
// any tick memory work runs after all other work of that tick, in an
// order set by the components' keys rather than by when the callbacks
// were scheduled. That same-tick order is part of the model: the golden
// result fingerprints pin it (DESIGN.md §8, "Same-tick order"). The late
// lane is a second, shorter wheel (lateSpan ticks, since DRAM work lands
// at most a few hundred cycles ahead) whose buckets are kept sorted by
// key, with its own overflow heap beyond that span.
package sim

import "math/bits"

const (
	wheelBits = 12
	// wheelSpan is how many ticks ahead of now the lane-0 wheel covers.
	// Events at now+wheelSpan or later overflow into its heap.
	wheelSpan = 1 << wheelBits
	// lateSpan is the late wheel's span. DRAM completions land at most
	// prep + queueing behind the bus lookahead + burst ahead (144 ticks
	// in the bench's HBM2E/DDR4 runs); anything further waits in the
	// late overflow heap.
	lateSpan = 256
	// bucketCap and lateBucketCap are each bucket's initial capacity,
	// carved from one slab when a wheel is built. Without it every fresh
	// engine re-grows all bucket slices from nil (tens of thousands of
	// small allocations per simulation run); buckets that ever exceed it
	// reallocate individually and keep the larger capacity. In a 1.2 M-
	// cycle system.Quick() run of C1 or C5, 99.5 % of late inserts land
	// in a tick holding at most 8 events and none in one past 21. A late
	// cap of 16 therefore regrows only a few buckets: each run allocates
	// about 130 KB less than at 32, and 60 KB less than at 8, where
	// regrowth outweighs the smaller slab. Lane 0 stays at 8: at 4, C1
	// runs allocate 0.5 MB more.
	bucketCap     = 8
	lateBucketCap = 16
)

// event is a scheduled callback in one of three closure-free forms:
// fn(), fnAt(now), or fnCtx(ctx, now). Exactly one of the function
// fields is non-nil. The two argument-taking forms exist so hot callers
// can pass long-lived bound functions instead of allocating a fresh
// closure per event.
//
// An event stores neither its time nor a sequence number: one in a
// wheel bucket fires at the tick the bucket stands for (the engine's now
// when it runs), and scheduling order is the bucket's order. Only the
// overflow heaps need both (farEvent). Keeping the struct at four words
// keeps the wheel's slab and the schedule-path copies small.
type event struct {
	ctx   uint64
	fn    func()
	fnAt  func(now uint64)
	fnCtx func(ctx, now uint64)
}

func (ev *event) call(now uint64) {
	switch {
	case ev.fn != nil:
		ev.fn()
	case ev.fnAt != nil:
		ev.fnAt(now)
	default:
		ev.fnCtx(ev.ctx, now)
	}
}

// lateEvent is one late-wheel entry: a callback in one of the late
// lane's two forms, fnAt(now) or fnCtx(ctx, now) — there is no plain
// fn() form, which keeps the entry at four words — and its key. Within
// a tick, late events run after all lane-0 events, in key order; events
// that share a key run in scheduling order. The key is assigned by the
// scheduling component (see NextLateKey) and makes same-tick order a
// property of the simulated system rather than of scheduling order.
type lateEvent struct {
	key, ctx uint64
	fnAt     func(now uint64)
	fnCtx    func(ctx, now uint64)
}

func (ev *lateEvent) call(now uint64) {
	if ev.fnAt != nil {
		ev.fnAt(now)
	} else {
		ev.fnCtx(ev.ctx, now)
	}
}

// farEvent is an event beyond its wheel's span. The overflow heaps
// order by (at, key, seq); lane-0 events carry key 0, so theirs is
// (at, seq). seq is the scheduling order that bucket order gives the
// wheels implicitly.
type farEvent struct {
	event
	at, key, seq uint64
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

	wheel    wheel[event] // lane 0, wheelSpan ticks, FIFO per tick
	overflow farHeap      // lane-0 events at now+wheelSpan or later

	late         wheel[lateEvent] // late lane, lateSpan ticks, key-sorted per tick
	lateOverflow farHeap          // late events at now+lateSpan or later
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

// Schedule runs fn at absolute time at. Scheduling in the past panics:
// it always indicates a component bug that would silently corrupt timing.
func (e *Engine) Schedule(at uint64, fn func()) {
	e.schedule(at, event{fn: fn})
}

// ScheduleCall is Schedule for callbacks that want the firing time: fn
// is invoked as fn(at). Passing a long-lived func(uint64) here avoids
// the closure a plain Schedule caller would allocate to capture the
// completion time.
func (e *Engine) ScheduleCall(at uint64, fn func(now uint64)) {
	e.schedule(at, event{fnAt: fn})
}

// ScheduleCtx is Schedule for callbacks that carry a caller context
// word: fn is invoked as fn(ctx, at). Components use this with one
// bound method per object (e.g. "fill #ctx completed") so the hot path
// schedules events without allocating.
func (e *Engine) ScheduleCtx(at uint64, fn func(ctx, now uint64), ctx uint64) {
	e.schedule(at, event{fnCtx: fn, ctx: ctx})
}

// After runs fn delay cycles from now.
func (e *Engine) After(delay uint64, fn func()) { e.Schedule(e.now+delay, fn) }

// AfterCall runs fn(firingTime) delay cycles from now.
func (e *Engine) AfterCall(delay uint64, fn func(now uint64)) {
	e.ScheduleCall(e.now+delay, fn)
}

// NextLateKey allocates an engine-unique late-lane key. Components that
// schedule late events (DRAM channels) take one key each at build time,
// so their same-tick order is their construction order.
func (e *Engine) NextLateKey() uint64 {
	k := e.lateKeys
	e.lateKeys++
	return k
}

// ScheduleLateCall runs fn(at) at time at on the late lane: after every
// lane-0 event of that tick, ordered among late events by key and then
// by scheduling order. Scheduling in the past panics, as in Schedule.
func (e *Engine) ScheduleLateCall(at, key uint64, fn func(now uint64)) {
	e.scheduleLate(at, lateEvent{key: key, fnAt: fn})
}

// ScheduleLateCtx is ScheduleLateCall for callbacks that carry a
// context word (fn(ctx, at), like ScheduleCtx).
func (e *Engine) ScheduleLateCtx(at, key uint64, fn func(ctx, now uint64), ctx uint64) {
	e.scheduleLate(at, lateEvent{key: key, fnCtx: fn, ctx: ctx})
}

func (e *Engine) schedule(at uint64, ev event) {
	if at < e.now {
		panic("sim: scheduling event in the past")
	}
	if at-e.now < wheelSpan {
		e.wheelInsert(at, ev)
	} else {
		e.overflow.push(farEvent{event: ev, at: at, seq: e.seq})
		e.seq++
	}
}

func (e *Engine) wheelInsert(at uint64, ev event) {
	if e.wheel.buckets == nil {
		e.wheel.init(wheelSpan, bucketCap)
	}
	b := e.wheel.add(at)
	b.events = append(b.events, ev)
}

func (e *Engine) scheduleLate(at uint64, ev lateEvent) {
	if at < e.now {
		panic("sim: scheduling late event in the past")
	}
	if at-e.now < lateSpan {
		e.lateInsert(at, ev)
	} else {
		far := event{ctx: ev.ctx, fnAt: ev.fnAt, fnCtx: ev.fnCtx}
		e.lateOverflow.push(farEvent{event: far, at: at, key: ev.key, seq: e.seq})
		e.seq++
	}
}

// lateInsert places ev into its tick's bucket by a stable insertion
// sort over the events that have yet to run, so equal keys keep
// scheduling order. At the running tick, an event whose key sorts
// before the one now running lands at the bucket head and runs next —
// exactly what a (time, key, seq) min-heap would pop next.
func (e *Engine) lateInsert(at uint64, ev lateEvent) {
	if e.late.buckets == nil {
		e.late.init(lateSpan, lateBucketCap)
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
	for len(e.overflow) > 0 && e.overflow[0].at-t < wheelSpan {
		ev := e.overflow.pop()
		e.wheelInsert(ev.at, ev.event)
	}
	for len(e.lateOverflow) > 0 && e.lateOverflow[0].at-t < lateSpan {
		ev := e.lateOverflow.pop()
		e.lateInsert(ev.at, lateEvent{key: ev.key, ctx: ev.ctx, fnAt: ev.fnAt, fnCtx: ev.fnCtx})
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
		ev.call(e.now)
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
		ev.call(e.now)
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
		ev.call(e.now)
	} else {
		ev := e.late.pop(e.now)
		ev.call(e.now)
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

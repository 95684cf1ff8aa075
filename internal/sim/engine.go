// Package sim provides the discrete-event simulation engine that drives
// every component of the Hydrogen system model. Components schedule
// callbacks at absolute times; the engine executes them in time order
// (ties broken by scheduling order, so runs are deterministic).
//
// The scheduler is a hierarchical timing wheel: events within wheelSpan
// ticks of "now" go into a per-tick bucket (O(1) schedule and pop, the
// overwhelmingly common case — DRAM timings and cache latencies are all
// well under the span), while far-future events (epoch ticks, long
// backoffs) wait in a small overflow heap and are promoted into the
// wheel as time approaches them. Buckets are value slices whose capacity
// is reused across ticks, so steady-state scheduling allocates nothing.
//
// Alongside the wheel ("lane 0", FIFO within a tick) the engine has a
// late lane: events ordered by (time, key, seq) that run after every
// lane-0 event of their tick. The DRAM channels schedule all of their
// work there — issue events and completion deliveries — so at any tick
// memory work runs after all other work of that tick, in an order set by
// the components' keys rather than by when the callbacks were
// scheduled. That same-tick order is part of the model: the golden
// result fingerprints pin it (DESIGN.md §8, "Same-tick order").
package sim

import "math/bits"

const (
	wheelBits = 12
	// wheelSpan is how many ticks ahead of now the wheel covers. Events
	// at now+wheelSpan or later overflow into the heap.
	wheelSpan  = 1 << wheelBits
	wheelMask  = wheelSpan - 1
	wheelWords = wheelSpan / 64
	// bucketCap is each bucket's initial capacity, carved from one slab
	// when the wheel is built. Without it every fresh engine re-grows
	// all 4096 bucket slices from nil (tens of thousands of small
	// allocations per simulation run); buckets that ever exceed it
	// reallocate individually and keep the larger capacity.
	bucketCap = 8
)

// event is a scheduled callback in one of three closure-free forms:
// fn(), fnAt(firingTime), or fnCtx(ctx, firingTime). Exactly one of the
// function fields is non-nil. The two argument-taking forms exist so hot
// callers can pass long-lived bound functions instead of allocating a
// fresh closure per event.
//
// There is no sequence number: FIFO order within a tick is the bucket's
// append order (direct schedules append chronologically, and promote
// runs before any same-tick callback can schedule directly — see
// promote), so only the overflow heap needs an explicit tie-breaker
// (overflowEvent.seq). Keeping the struct at five words makes the
// schedule-path copies measurably cheaper.
type event struct {
	at    uint64
	ctx   uint64
	fn    func()
	fnAt  func(now uint64)
	fnCtx func(ctx, now uint64)
}

func (ev *event) call() {
	switch {
	case ev.fn != nil:
		ev.fn()
	case ev.fnAt != nil:
		ev.fnAt(ev.at)
	default:
		ev.fnCtx(ev.ctx, ev.at)
	}
}

// overflowEvent carries the explicit scheduling-order tie-breaker that
// heap ordering needs; wheel buckets get it implicitly from FIFO order.
type overflowEvent struct {
	event
	seq uint64
}

// eventHeap is the overflow queue for events beyond the wheel span. It
// is hand-rolled over a value slice rather than container/heap because
// interface boxing would allocate per push.
type eventHeap []overflowEvent

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h eventHeap) down(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		j := l
		if r := l + 1; r < n && h.less(r, l) {
			j = r
		}
		if !h.less(j, i) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// lateEvent is one late-lane entry. Within a tick, late events run
// after all lane-0 events, ordered by (key, seq). The key is assigned
// by the scheduling component (see NextLateKey) and makes same-tick
// order a property of the simulated system rather than of scheduling
// order; seq breaks ties between events that share (at, key) in
// scheduling order.
type lateEvent struct {
	event
	key uint64
	seq uint64
}

// lateHeap is a min-heap over (at, key, seq), hand-rolled like eventHeap
// so pushes never box.
type lateHeap []lateEvent

func (h lateHeap) less(i, j int) bool {
	a, b := &h[i], &h[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

func (h lateHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h lateHeap) down(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		j := l
		if r := l + 1; r < n && h.less(r, l) {
			j = r
		}
		if !h.less(j, i) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// bucket holds the events of a single tick in FIFO (insertion) order. head
// tracks how many have already executed; capacity is reused once the
// bucket drains.
type bucket struct {
	events []event
	head   int
}

// Engine is a single-threaded discrete-event scheduler. The zero value is
// ready to use at time 0.
type Engine struct {
	now    uint64
	seq    uint64 // overflow-heap tie-breaker; see event doc comment
	nsteps uint64

	buckets    []bucket // wheelSpan per-tick lanes, allocated lazily
	occupied   []uint64 // bitmap over buckets: 1 = non-empty
	wheelCount int      // events currently in the wheel

	overflow eventHeap // events at now+wheelSpan or later

	late     lateHeap // late lane: (at, key, seq)-ordered events
	lateKeys uint64   // NextLateKey allocator
}

// New returns a fresh engine at time zero.
func New() *Engine { return &Engine{} }

// Now returns the current simulation time in cycles.
func (e *Engine) Now() uint64 { return e.now }

// Steps returns the number of events executed so far (useful for
// profiling and runaway detection in tests).
func (e *Engine) Steps() uint64 { return e.nsteps }

// Pending returns the number of events still queued.
func (e *Engine) Pending() int { return e.wheelCount + len(e.overflow) + len(e.late) }

// Schedule runs fn at absolute time at. Scheduling in the past panics:
// it always indicates a component bug that would silently corrupt timing.
func (e *Engine) Schedule(at uint64, fn func()) {
	e.schedule(event{at: at, fn: fn})
}

// ScheduleCall is Schedule for callbacks that want the firing time: fn
// is invoked as fn(at). Passing a long-lived func(uint64) here avoids
// the closure a plain Schedule caller would allocate to capture the
// completion time.
func (e *Engine) ScheduleCall(at uint64, fn func(now uint64)) {
	e.schedule(event{at: at, fnAt: fn})
}

// ScheduleCtx is Schedule for callbacks that carry a caller context
// word: fn is invoked as fn(ctx, at). Components use this with one
// bound method per object (e.g. "fill #ctx completed") so the hot path
// schedules events without allocating.
func (e *Engine) ScheduleCtx(at uint64, fn func(ctx, now uint64), ctx uint64) {
	e.schedule(event{at: at, fnCtx: fn, ctx: ctx})
}

// After runs fn delay cycles from now.
func (e *Engine) After(delay uint64, fn func()) { e.Schedule(e.now+delay, fn) }

// AfterCall runs fn(firingTime) delay cycles from now.
func (e *Engine) AfterCall(delay uint64, fn func(now uint64)) {
	e.ScheduleCall(e.now+delay, fn)
}

// AfterCtx runs fn(ctx, firingTime) delay cycles from now.
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

// ScheduleLateCall runs fn(at) at time at on the late lane: after every
// lane-0 event of that tick, ordered among late events by (key, seq).
// Scheduling in the past panics, as in Schedule.
func (e *Engine) ScheduleLateCall(at, key uint64, fn func(now uint64)) {
	e.scheduleLate(event{at: at, fnAt: fn}, key)
}

// ScheduleLateCtx is ScheduleLateCall for callbacks that carry a
// context word (fn(ctx, at), like ScheduleCtx).
func (e *Engine) ScheduleLateCtx(at, key uint64, fn func(ctx, now uint64), ctx uint64) {
	e.scheduleLate(event{at: at, fnCtx: fn, ctx: ctx}, key)
}

func (e *Engine) scheduleLate(ev event, key uint64) {
	if ev.at < e.now {
		panic("sim: scheduling late event in the past")
	}
	e.late = append(e.late, lateEvent{event: ev, key: key, seq: e.seq})
	e.seq++
	e.late.up(len(e.late) - 1)
}

func (e *Engine) schedule(ev event) {
	if ev.at < e.now {
		panic("sim: scheduling event in the past")
	}
	if ev.at-e.now < wheelSpan {
		e.wheelInsert(ev)
	} else {
		e.overflow = append(e.overflow, overflowEvent{event: ev, seq: e.seq})
		e.seq++
		e.overflow.up(len(e.overflow) - 1)
	}
}

func (e *Engine) wheelInsert(ev event) {
	if e.buckets == nil {
		e.buckets = make([]bucket, wheelSpan)
		e.occupied = make([]uint64, wheelWords)
		slab := make([]event, wheelSpan*bucketCap)
		for i := range e.buckets {
			e.buckets[i].events, slab = slab[:0:bucketCap], slab[bucketCap:]
		}
	}
	i := ev.at & wheelMask
	e.buckets[i].events = append(e.buckets[i].events, ev)
	e.occupied[i>>6] |= 1 << (i & 63)
	e.wheelCount++
}

// promote moves overflow events that have come within the wheel span
// into their buckets. The heap pops in (at, seq) order and direct
// scheduling into a promoted tick can only happen afterwards (a direct
// schedule at tick T implies now > T-wheelSpan, and promote runs before
// any callback at such a time executes), so FIFO order within a tick is
// preserved.
func (e *Engine) promote() {
	for len(e.overflow) > 0 && e.overflow[0].at-e.now < wheelSpan {
		ev := e.overflow[0].event
		last := len(e.overflow) - 1
		e.overflow[0] = e.overflow[last]
		e.overflow[last] = overflowEvent{}
		e.overflow = e.overflow[:last]
		if last > 0 {
			e.overflow.down(0)
		}
		e.wheelInsert(ev)
	}
}

// nextTick returns the absolute time of the earliest wheel event. It
// must only be called when wheelCount > 0: every wheel event lies in
// [now, now+wheelSpan), so the first occupied bucket at or after now's
// slot (wrapping) is the earliest tick.
func (e *Engine) nextTick() uint64 {
	p := e.now & wheelMask
	word := int(p >> 6)
	// Bits at or after p within its word.
	if w := e.occupied[word] >> (p & 63); w != 0 {
		return e.now + uint64(bits.TrailingZeros64(w))
	}
	for off := 1; off <= wheelWords; off++ {
		i := (word + off) & (wheelWords - 1)
		if w := e.occupied[i]; w != 0 {
			slot := uint64(i<<6 + bits.TrailingZeros64(w))
			return e.now + ((slot - p) & wheelMask)
		}
	}
	panic("sim: nextTick on empty wheel")
}

// nextWork returns the earliest time holding a pending event in either
// lane. promote must be current for e.now.
func (e *Engine) nextWork() (uint64, bool) {
	var n uint64
	ok := false
	if e.wheelCount > 0 {
		if b := &e.buckets[e.now&wheelMask]; b.head < len(b.events) {
			n, ok = e.now, true
		} else {
			n, ok = e.nextTick(), true
		}
	} else if len(e.overflow) > 0 {
		n, ok = e.overflow[0].at, true
	}
	if len(e.late) > 0 && (!ok || e.late[0].at < n) {
		n, ok = e.late[0].at, true
	}
	return n, ok
}

// latePop removes and returns the late-lane minimum.
func (e *Engine) latePop() event {
	ev := e.late[0].event
	last := len(e.late) - 1
	e.late[0] = e.late[last]
	e.late[last] = lateEvent{}
	e.late = e.late[:last]
	if last > 0 {
		e.late.down(0)
	}
	return ev
}

// drainBucket runs the current tick's lane-0 bucket to empty. Callbacks
// may append to the bucket (zero-delay schedules), so len is re-checked
// every iteration. The bucket cannot hold events of an aliased future
// tick: an insert for now+wheelSpan lands in the overflow heap.
func (e *Engine) drainBucket() {
	i := e.now & wheelMask
	b := &e.buckets[i]
	for b.head < len(b.events) {
		ev := b.events[b.head]
		b.events[b.head] = event{} // release callback references for the GC
		b.head++
		e.wheelCount--
		e.nsteps++
		ev.call()
	}
	b.events = b.events[:0]
	b.head = 0
	e.occupied[i>>6] &^= 1 << (i & 63)
}

// runTick executes every event at the current tick in lane order: all
// lane-0 events first (FIFO), then late events in (key, seq) order. A
// late event may schedule lane-0 work at the same tick (a completion
// continuing inline), so lane 0 is re-drained after every late event:
// that follow-up runs before the next late event of the tick, as the
// hybrid controller expects. Late events never insert
// late work that would sort before the current heap minimum at the same
// tick (issue events only produce strictly-future completions), so the
// heap scan stays monotone.
func (e *Engine) runTick() {
	if e.wheelCount > 0 {
		e.drainBucket()
	}
	for len(e.late) > 0 && e.late[0].at == e.now {
		ev := e.latePop()
		e.nsteps++
		ev.call()
		if e.wheelCount > 0 {
			e.drainBucket()
		}
	}
}

// Step executes the next event, if any, advancing time to it.
// It reports whether an event was executed.
func (e *Engine) Step() bool {
	e.promote()
	next, ok := e.nextWork()
	if !ok {
		return false
	}
	if next != e.now {
		e.now = next
		e.promote()
	}
	if e.wheelCount > 0 {
		i := e.now & wheelMask
		if b := &e.buckets[i]; b.head < len(b.events) {
			ev := b.events[b.head]
			b.events[b.head] = event{} // release callback references for the GC
			b.head++
			if b.head == len(b.events) {
				b.events = b.events[:0]
				b.head = 0
				e.occupied[i>>6] &^= 1 << (i & 63)
			}
			e.wheelCount--
			e.nsteps++
			ev.call()
			return true
		}
	}
	ev := e.latePop()
	e.nsteps++
	ev.call()
	return true
}

// peek returns the time of the next pending event without executing it.
func (e *Engine) peek() (uint64, bool) {
	e.promote()
	return e.nextWork()
}

// RunUntil executes events until the queue is empty or the next event is
// at or beyond t; time is then advanced to exactly t.
//
// The loop works tick-at-a-time (nextWork, then runTick) rather than
// event-at-a-time: promote runs only when now advances, because
// promotion eligibility (at-now < wheelSpan) cannot change while now
// stands still — a callback's direct schedule lands in the wheel
// precisely when it would be promotable, and its overflow pushes are
// not.
func (e *Engine) RunUntil(t uint64) {
	e.promote()
	for {
		next, ok := e.nextWork()
		if !ok || next >= t {
			break
		}
		if next != e.now {
			e.now = next
			e.promote()
		}
		e.runTick()
	}
	if e.now < t {
		e.now = t
	}
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// Stop discards every pending event (wheel and overflow), releasing
// their callback references. Time, the step counter, and the sequence
// counter are preserved, and the engine remains usable: new events may
// be scheduled and run afterwards. Components with in-flight state are
// NOT notified; Stop is for abandoning a simulation, not pausing it.
func (e *Engine) Stop() {
	for i := range e.buckets {
		b := &e.buckets[i]
		for j := b.head; j < len(b.events); j++ {
			b.events[j] = event{}
		}
		b.events = b.events[:0]
		b.head = 0
	}
	for i := range e.occupied {
		e.occupied[i] = 0
	}
	e.wheelCount = 0
	for i := range e.overflow {
		e.overflow[i] = overflowEvent{}
	}
	e.overflow = e.overflow[:0]
	for i := range e.late {
		e.late[i] = lateEvent{}
	}
	e.late = e.late[:0]
}

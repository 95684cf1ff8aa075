// Package sim provides the discrete-event simulation engine that drives
// every component of the Hydrogen system model. Components schedule
// callbacks at absolute times, and the engine always runs the pending
// event with the least (time, key, scheduling order). A plain event
// (ScheduleCtx) has key 0; a late event (ScheduleLateCtx) carries its
// component's key plus one. So at every tick the core, cache and
// controller work runs first, in scheduling order, and the DRAM
// channels' work after it, in key order. That same-tick order is part
// of the model: the golden result fingerprints pin it (DESIGN.md §8,
// "Same-tick order").
//
// A callback has one form, fn(ctx, now): a long-lived bound function
// plus one context word, usually the slab index of the record the
// callback acts on (an in-flight access, a fill, a copy). Scheduling one
// therefore allocates no closure.
//
// The queue is a timing wheel of per-tick lists kept sorted by key, for
// events within span ticks of now, and an overflow heap for the rest
// (the epoch ticks), promoted into the wheel as time approaches them.
// The lists link the nodes of one slab with a free list; the slab grows
// to the most events ever pending at once and is reused from then on,
// so steady-state scheduling allocates nothing.
package sim

import "math/bits"

// span is how many ticks ahead of now the wheel covers; events at
// now+span or later wait in the overflow heap. In 1.2 M-cycle
// system.Quick() runs of all twelve combos, plain work lands at most 80
// ticks ahead and DRAM completions, the farthest late work, at most 144
// (prep + queueing behind the bus lookahead + burst), so only the epoch
// ticks overflow.
const span = 256

// event is one pending callback, fn(ctx, now), and its key: 0 for a
// plain event, the late key plus one for a late event. It stores
// neither its time nor a sequence number: one in a tick's list fires at
// the tick the list stands for (the engine's now when it runs), and
// scheduling order among equal keys is the list's order. Only the
// overflow heap needs both (farEvent).
type event struct {
	key, ctx uint64
	fn       func(ctx, now uint64)
}

// farEvent is an event beyond the wheel's span. The overflow heap
// orders it by (at, key, seq); seq is the scheduling order that list
// order gives the wheel implicitly.
type farEvent struct {
	event
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

// node is one pending event in the wheel's slab. A pending node is
// linked into its tick's list through next and prev (-1 ends the list;
// the head's prev is never read), a free one into the free list through
// next. A node is the event plus 8 bytes.
type node struct {
	ev         event
	next, prev int32
}

// tickList is one tick's pending events: its first and last node. head
// is -1 when the list is empty, and tail is then meaningless.
type tickList struct{ head, tail int32 }

// wheel is a ring of per-tick lists covering [now, now+span) with an
// occupancy bitmap (bit set iff the tick's list holds an event that has
// not run), so the next busy tick is a few TrailingZeros64 calls away.
// Every event in it lies within one span of now, so a slot never holds
// two ticks at once. The zero value is empty; insert builds the lists.
type wheel struct {
	nodes    []node // grows to the most events ever pending at once
	free     int32  // free-list head, -1 = empty
	lists    []tickList
	occupied []uint64
	mask     uint64
	n        int // events held
}

// alloc returns a node holding ev and ending a list, taken off the free
// list or, when that is empty, appended to the slab; the caller links
// it.
func (w *wheel) alloc(ev event) int32 {
	i := w.free
	if i < 0 {
		w.nodes = append(w.nodes, node{ev: ev, next: -1})
		return int32(len(w.nodes) - 1)
	}
	nd := &w.nodes[i]
	w.free = nd.next
	nd.ev, nd.next = ev, -1
	return i
}

// insert links ev into its tick's list after the last event whose key
// is at most ev's, so the list stays in key order and equal keys keep
// scheduling order. Appending is the common case, so the tail is
// checked first; otherwise the walk goes back from the tail, as plain
// events and completions sort before the issue events already in a
// tick. At the running tick the list holds only the events yet to run,
// so an event whose key sorts before all of them lands at the head and
// runs next — exactly what a (time, key, seq) min-heap would pop next.
// A plain event that a late callback schedules for its own tick thus
// runs before the tick's next late event.
func (w *wheel) insert(at uint64, ev event) {
	if w.lists == nil {
		w.lists = make([]tickList, span)
		for i := range w.lists {
			w.lists[i].head = -1
		}
		w.occupied = make([]uint64, span/64)
		w.mask = span - 1
		w.free = -1
	}
	i := w.alloc(ev)
	s := at & w.mask
	l := &w.lists[s]
	w.n++
	switch {
	case l.head < 0:
		w.occupied[s>>6] |= 1 << (s & 63)
		l.head, l.tail = i, i
		return
	case w.nodes[l.tail].ev.key <= ev.key:
		w.nodes[i].prev = l.tail
		w.nodes[l.tail].next = i
		l.tail = i
		return
	}
	// Link i before the first node whose key exceeds ev's: the tail's does.
	p := l.tail
	for p != l.head {
		q := w.nodes[p].prev
		if w.nodes[q].ev.key <= ev.key {
			break
		}
		p = q
	}
	nd, succ := &w.nodes[i], &w.nodes[p]
	nd.next = p
	if p == l.head {
		l.head = i
	} else {
		nd.prev = succ.prev
		w.nodes[succ.prev].next = i
	}
	succ.prev = i
}

// ready reports whether tick's list holds an event that has not run.
// tick must be the engine's now.
func (w *wheel) ready(tick uint64) bool {
	return w.n > 0 && w.lists[tick&w.mask].head >= 0
}

// pop unlinks and returns the first event of tick's list, which must be
// ready, and frees its node. A callback may refill the list.
func (w *wheel) pop(tick uint64) event {
	s := tick & w.mask
	l := &w.lists[s]
	i := l.head
	nd := &w.nodes[i]
	ev := nd.ev
	if nd.next < 0 {
		w.occupied[s>>6] &^= 1 << (s & 63)
	}
	l.head = nd.next
	*nd = node{next: w.free} // release callback references for the GC
	w.free = i
	w.n--
	return ev
}

// next returns the earliest tick holding an event. It must only be
// called when n > 0: every event lies in [now, now+span), so the first
// occupied list at or after now's slot (wrapping) is the earliest.
func (w *wheel) next(now uint64) uint64 {
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

// clear drops every event, releasing its callback references. The slab
// keeps its capacity for the events scheduled after.
func (w *wheel) clear() {
	clear(w.nodes)
	w.nodes = w.nodes[:0]
	w.free = -1
	for i := range w.lists {
		w.lists[i].head = -1
	}
	clear(w.occupied)
	w.n = 0
}

// Engine is a single-threaded discrete-event scheduler. The zero value is
// ready to use at time 0.
//
// Invariant: the overflow heap holds only events at or beyond the
// wheel's span from now, so every wheel event comes before every heap
// event. Time changes only in advance, which promotes, so a direct
// schedule into a tick's list always comes after every overflow event
// of that tick (which was scheduled earlier) has been promoted.
type Engine struct {
	now    uint64
	seq    uint64 // overflow-heap tie-breaker
	nsteps uint64

	wheel    wheel
	overflow farHeap // events at now+span or later
	lateKeys uint64  // NextLateKey allocator
}

// New returns a fresh engine at time zero.
func New() *Engine { return &Engine{} }

// Now returns the current simulation time in cycles.
func (e *Engine) Now() uint64 { return e.now }

// Steps returns the number of events executed so far (useful for
// profiling and runaway detection in tests).
func (e *Engine) Steps() uint64 { return e.nsteps }

// Pending returns the number of events still queued.
func (e *Engine) Pending() int { return e.wheel.n + len(e.overflow) }

// ScheduleCtx runs fn(ctx, at) at absolute time at: after the plain
// events already scheduled for that tick and before its late events.
// Scheduling in the past panics: it always indicates a component bug
// that would silently corrupt timing.
func (e *Engine) ScheduleCtx(at uint64, fn func(ctx, now uint64), ctx uint64) {
	e.schedule(at, event{ctx: ctx, fn: fn})
}

// AfterCtx runs fn(ctx, now+delay) delay cycles from now.
func (e *Engine) AfterCtx(delay uint64, fn func(ctx, now uint64), ctx uint64) {
	e.ScheduleCtx(e.now+delay, fn, ctx)
}

// NextLateKey allocates an engine-unique late-event key. Components that
// schedule late events (DRAM channels) take one key each at build time,
// so their same-tick order is their construction order.
func (e *Engine) NextLateKey() uint64 {
	k := e.lateKeys
	e.lateKeys++
	return k
}

// ScheduleLateCtx runs fn(ctx, at) at time at as a late event: after
// every ScheduleCtx event of that tick, ordered among late events by
// key (below 2^64-1) and then by scheduling order. Scheduling in the
// past panics, as in ScheduleCtx.
func (e *Engine) ScheduleLateCtx(at, key uint64, fn func(ctx, now uint64), ctx uint64) {
	e.schedule(at, event{key: key + 1, ctx: ctx, fn: fn})
}

// schedule puts ev into at's list or, at span or more ahead, into the
// overflow heap.
func (e *Engine) schedule(at uint64, ev event) {
	if at < e.now {
		panic("sim: scheduling event in the past")
	}
	if at-e.now < span {
		e.wheel.insert(at, ev)
	} else {
		e.overflow.push(farEvent{event: ev, at: at, seq: e.seq})
		e.seq++
	}
}

// advance moves time to t and promotes the overflow events that have
// come within the wheel's span. The heap pops in (at, key, seq) order,
// so promoted events enter their lists in scheduling order.
func (e *Engine) advance(t uint64) {
	e.now = t
	for len(e.overflow) > 0 && e.overflow[0].at-t < span {
		ev := e.overflow.pop()
		e.wheel.insert(ev.at, ev.event)
	}
}

// nextWork returns the earliest time holding a pending event.
func (e *Engine) nextWork() (uint64, bool) {
	switch {
	case e.wheel.n > 0:
		return e.wheel.next(e.now), true
	case len(e.overflow) > 0:
		return e.overflow[0].at, true
	}
	return 0, false
}

// fire runs the first event of the current tick, which must be ready.
func (e *Engine) fire() {
	ev := e.wheel.pop(e.now)
	e.nsteps++
	ev.fn(ev.ctx, e.now)
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
	e.fire()
	return true
}

// RunUntil executes events until the queue is empty or the next event is
// at or beyond t; time is then advanced to exactly t.
//
// The loop works tick-at-a-time (nextWork, then the tick's list to
// empty) rather than event-at-a-time: promotion runs only when now
// advances, because promotion eligibility (at-now < span) cannot change
// while now stands still — a callback's direct schedule lands in the
// wheel precisely when it would be promotable, and its overflow pushes
// are not. Callbacks may refill the running tick's list, so readiness
// is re-checked after every event.
func (e *Engine) RunUntil(t uint64) {
	for {
		next, ok := e.nextWork()
		if !ok || next >= t {
			break
		}
		if next != e.now {
			e.advance(next)
		}
		for e.wheel.ready(e.now) {
			e.fire()
		}
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

// Stop discards every pending event (wheel and overflow), releasing
// their callback references. Time, the step counter, and the sequence
// counter are preserved, and the engine remains usable: new events may
// be scheduled and run afterwards. Components with in-flight state are
// NOT notified; Stop is for abandoning a simulation, not pausing it.
func (e *Engine) Stop() {
	e.wheel.clear()
	e.overflow.clear()
}

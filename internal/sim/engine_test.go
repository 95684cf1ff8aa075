package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

// runAt schedules fn, which ignores its context word and firing time,
// at time t.
func runAt(e *Engine, t uint64, fn func()) {
	e.ScheduleCtx(t, func(_, _ uint64) { fn() }, 0)
}

func TestZeroValueUsable(t *testing.T) {
	var e Engine
	if e.Now() != 0 {
		t.Fatalf("new engine at time %d, want 0", e.Now())
	}
	if e.Step() {
		t.Fatal("Step on empty engine reported an event")
	}
}

func TestScheduleOrder(t *testing.T) {
	e := New()
	var got []int
	runAt(e, 30, func() { got = append(got, 3) })
	runAt(e, 10, func() { got = append(got, 1) })
	runAt(e, 20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("final time %d, want 30", e.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		runAt(e, 5, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events ran out of order: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	var fired []uint64
	runAt(e, 1, func() {
		fired = append(fired, e.Now())
		runAt(e, e.Now()+4, func() { fired = append(fired, e.Now()) })
	})
	e.Run()
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 5 {
		t.Fatalf("nested events fired at %v, want [1 5]", fired)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := New()
	runAt(e, 10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		runAt(e, 5, func() {})
	})
	e.Run()
}

func TestRunUntil(t *testing.T) {
	e := New()
	var fired []uint64
	for _, at := range []uint64{5, 10, 15, 20} {
		at := at
		runAt(e, at, func() { fired = append(fired, at) })
	}
	e.RunUntil(15)
	if len(fired) != 2 {
		t.Fatalf("RunUntil(15) fired %v, want events at 5 and 10 only", fired)
	}
	if e.Now() != 15 {
		t.Fatalf("time after RunUntil(15) is %d", e.Now())
	}
	e.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("remaining events did not fire: %v", fired)
	}
	if e.Now() != 100 {
		t.Fatalf("time after RunUntil(100) is %d", e.Now())
	}
}

func TestRunUntilEventAtBoundaryNotRun(t *testing.T) {
	e := New()
	ran := false
	runAt(e, 10, func() { ran = true })
	e.RunUntil(10)
	if ran {
		t.Fatal("event at boundary time ran; RunUntil is exclusive")
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
}

func TestStepsCounter(t *testing.T) {
	e := New()
	for i := uint64(0); i < 7; i++ {
		runAt(e, i, func() {})
	}
	e.Run()
	if e.Steps() != 7 {
		t.Fatalf("Steps() = %d, want 7", e.Steps())
	}
}

// Property: events always execute in nondecreasing time order, no matter
// the insertion order.
func TestPropertyTimeOrdered(t *testing.T) {
	f := func(times []uint16) bool {
		e := New()
		var got []uint64
		for _, tm := range times {
			at := uint64(tm)
			runAt(e, at, func() { got = append(got, at) })
		}
		e.Run()
		return sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: every scheduled event runs exactly once.
func TestPropertyAllEventsRun(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		e := New()
		n := rng.Intn(500)
		count := 0
		for i := 0; i < n; i++ {
			runAt(e, uint64(rng.Intn(1000)), func() { count++ })
		}
		e.Run()
		if count != n {
			t.Fatalf("trial %d: ran %d of %d events", trial, count, n)
		}
	}
}

// --- timing-wheel specifics ---

// Same-tick events must run in scheduling order even when some of them
// arrive via the overflow heap (scheduled from far away) and others are
// scheduled directly into the wheel bucket later.
func TestTieBreakAcrossOverflowPromotion(t *testing.T) {
	e := New()
	const tick = span * 3
	var got []int
	runAt(e, tick, func() { got = append(got, 0) }) // overflow (far future)
	runAt(e, tick, func() { got = append(got, 1) }) // overflow, same tick
	runAt(e, tick-1, func() {                       // runs after promotion
		runAt(e, tick, func() { got = append(got, 2) }) // direct into wheel
	})
	e.Run()
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("same-tick order across promotion: %v, want [0 1 2]", got)
	}
}

// Events exactly at, just below, and far beyond the wheel span must all
// fire in time order as the wheel wraps lane boundaries repeatedly.
func TestWheelOverflowPromotionAcrossLanes(t *testing.T) {
	e := New()
	times := []uint64{
		1, span - 1, span, span + 1,
		2*span + 7, 5*span + 3, 17 * span,
	}
	var got []uint64
	// Insert in scrambled order.
	for _, i := range []int{4, 0, 6, 2, 1, 5, 3} {
		at := times[i]
		runAt(e, at, func() { got = append(got, at) })
	}
	e.Run()
	if len(got) != len(times) {
		t.Fatalf("ran %d of %d events", len(got), len(times))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("events out of order: %v", got)
		}
	}
	if e.Now() != 17*span {
		t.Fatalf("final time %d, want %d", e.Now(), 17*span)
	}
}

// A bucket slot is shared by ticks T and T+span; an event for the
// later tick scheduled while the earlier tick is executing must not run
// early.
func TestLaneAliasingDoesNotReorder(t *testing.T) {
	e := New()
	var got []uint64
	runAt(e, 10, func() {
		got = append(got, e.Now())
		runAt(e, 10+span, func() { got = append(got, e.Now()) })
		runAt(e, 11, func() { got = append(got, e.Now()) })
	})
	e.Run()
	want := []uint64{10, 11, 10 + span}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("aliased-slot events fired at %v, want %v", got, want)
	}
}

func TestScheduleCallReceivesFiringTime(t *testing.T) {
	e := New()
	type fired struct{ ctx, at uint64 }
	var got []fired
	record := func(ctx, now uint64) { got = append(got, fired{ctx, now}) }
	e.ScheduleCtx(42, record, 3)     // wheel
	e.ScheduleCtx(span+9, record, 7) // overflow heap
	e.AfterCtx(2*span+1, record, 11) // overflow heap, relative
	e.Run()
	want := []fired{{3, 42}, {7, span + 9}, {11, 2*span + 1}}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired (ctx, at) %v, want %v", got, want)
		}
	}
}

// TestEventIsTwoWords pins an event's callback at two words, {ctx, fn},
// beside its key: a plain event is key 0 of the same entry and carries
// nothing else.
func TestEventIsTwoWords(t *testing.T) {
	var ev event
	word := unsafe.Sizeof(uintptr(0))
	if got := unsafe.Sizeof(ev.ctx) + unsafe.Sizeof(ev.fn); got != 2*word {
		t.Fatalf("event callback is %d bytes, want %d", got, 2*word)
	}
	if got, want := unsafe.Sizeof(ev), unsafe.Sizeof(ev.key)+2*word; got != want {
		t.Fatalf("event is %d bytes, want %d", got, want)
	}
}

// TestLateEventSize pins the entry a late event shares with every event
// at {key, ctx, fn}, 24 bytes, and its wheel node at 32 with the links:
// the node is what each pending event holds of the slab, and with
// {at, seq} the entry is every overflow entry, 40 bytes.
func TestLateEventSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit targets")
	}
	if got := unsafe.Sizeof(event{}); got != 24 {
		t.Fatalf("event is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(node{}); got != 32 {
		t.Fatalf("node is %d bytes, want 32", got)
	}
	if got := unsafe.Sizeof(farEvent{}); got != 40 {
		t.Fatalf("overflow event is %d bytes, want 40", got)
	}
}

// TestLaneSlabFollowsPending schedules a burst of K same-tick plain and
// K late events (late keys out of order), drains it and refills it: the
// slab holds exactly 2K nodes, the events run plain first, then in key
// order, and a refill allocates nothing.
func TestLaneSlabFollowsPending(t *testing.T) {
	const k = 100
	e := New()
	var got []uint64
	record := func(ctx, _ uint64) { got = append(got, ctx) }
	burst := func() {
		got = got[:0]
		at := e.Now() + 1
		for i := uint64(0); i < k; i++ {
			e.ScheduleCtx(at, record, i)
			key := i * 37 % k // a permutation of 0..k-1
			e.ScheduleLateCtx(at, key, record, k+key)
		}
		e.RunUntil(at + 1)
	}
	got = make([]uint64, 0, 2*k)
	burst()
	for i, ctx := range got {
		if ctx != uint64(i) {
			t.Fatalf("event %d ran with ctx %d: want lane 0 in scheduling order, then late keys in order", i, ctx)
		}
	}
	if len(got) != 2*k || e.Pending() != 0 {
		t.Fatalf("ran %d of %d events, %d pending", len(got), 2*k, e.Pending())
	}
	if n := testing.AllocsPerRun(20, burst); n != 0 {
		t.Fatalf("a refill allocates %.1f times, want 0", n)
	}
	if len(e.wheel.nodes) != 2*k {
		t.Fatalf("slab holds %d nodes, want %d", len(e.wheel.nodes), 2*k)
	}
}

func TestStopDrainsPendingEvents(t *testing.T) {
	e := New()
	ran := 0
	runAt(e, 5, func() { ran++ })
	runAt(e, span*2, func() { ran++ }) // overflow
	e.Stop()
	if e.Pending() != 0 {
		t.Fatalf("Pending after Stop = %d, want 0", e.Pending())
	}
	e.Run()
	if ran != 0 {
		t.Fatalf("%d stopped events still ran", ran)
	}
	// The engine stays usable after Stop.
	runAt(e, 10, func() { ran++ })
	e.Run()
	if ran != 1 || e.Now() != 10 {
		t.Fatalf("engine unusable after Stop: ran=%d now=%d", ran, e.Now())
	}
}

// TestStopReleasesAndReuses stops an engine with plain and late events
// pending in its slab: no node keeps a callback reference, and events
// scheduled afterwards run in (time, key) order from the same slab.
func TestStopReleasesAndReuses(t *testing.T) {
	e := New()
	noop := func(_, _ uint64) {}
	for i := uint64(0); i < 8; i++ {
		e.ScheduleCtx(3+i%2, noop, i)
		e.ScheduleLateCtx(3+i%2, 8-i, noop, i)
	}
	slab := cap(e.wheel.nodes)
	e.Stop()
	for i, nd := range e.wheel.nodes[:slab] {
		if nd.ev.fn != nil {
			t.Fatalf("node %d still holds its callback after Stop", i)
		}
	}
	var got []uint64
	record := func(ctx, _ uint64) { got = append(got, ctx) }
	e.ScheduleLateCtx(5, 2, record, 4)
	e.ScheduleLateCtx(5, 1, record, 3)
	e.ScheduleCtx(5, record, 1)
	e.ScheduleCtx(4, record, 0)
	e.ScheduleCtx(5, record, 2)
	e.ScheduleLateCtx(6, 0, record, 5)
	e.Run()
	for i, ctx := range got {
		if ctx != uint64(i) {
			t.Fatalf("after Stop, events ran in order %v", got)
		}
	}
	if len(got) != 6 {
		t.Fatalf("after Stop, ran %d of 6 events", len(got))
	}
	if cap(e.wheel.nodes) != slab {
		t.Fatalf("slab regrew after Stop: capacity %d, was %d", cap(e.wheel.nodes), slab)
	}
}

func TestStopMidRun(t *testing.T) {
	e := New()
	var got []int
	runAt(e, 1, func() { got = append(got, 1); e.Stop() })
	runAt(e, 2, func() { got = append(got, 2) })
	runAt(e, span+2, func() { got = append(got, 3) })
	e.Run()
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("Stop mid-run executed %v, want [1]", got)
	}
}

// Property: heavy random scheduling across the lane boundary preserves
// (time, order) semantics identical to a reference sort.
func TestPropertyWheelMatchesReferenceOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		e := New()
		type ref struct{ at, seq uint64 }
		var want []ref
		var got []ref
		n := 200 + rng.Intn(400)
		for i := 0; i < n; i++ {
			// Mix near (wheel) and far (overflow) deltas.
			at := uint64(rng.Intn(3 * span))
			seq := uint64(i)
			want = append(want, ref{at, seq})
			runAt(e, at, func() { got = append(got, ref{at, seq}) })
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			return want[i].seq < want[j].seq
		})
		e.Run()
		if len(got) != len(want) {
			t.Fatalf("trial %d: ran %d of %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: event %d = %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	b.ReportAllocs()
	noop := func(_, _ uint64) {}
	for i := 0; i < b.N; i++ {
		e := New()
		for j := 0; j < 1024; j++ {
			e.ScheduleCtx(uint64(j%64), noop, 0)
		}
		e.Run()
	}
}

// deepChain is BenchmarkScheduleRunDeep's callback: a bound method that
// schedules its successor, as components do.
type deepChain struct {
	e  *Engine
	n  int
	fn func(ctx, now uint64)
}

func (d *deepChain) step(_, _ uint64) {
	d.n++
	if d.n < 4096 {
		d.e.AfterCtx(uint64(d.n%97)+1, d.fn, 0)
	}
}

// BenchmarkScheduleRunDeep stresses the steady-state pattern of a real
// simulation: every event schedules a successor a small delta ahead.
func BenchmarkScheduleRunDeep(b *testing.B) {
	b.ReportAllocs()
	d := &deepChain{}
	d.fn = d.step
	for i := 0; i < b.N; i++ {
		d.e, d.n = New(), 0
		d.e.ScheduleCtx(0, d.fn, 0)
		d.e.Run()
	}
}

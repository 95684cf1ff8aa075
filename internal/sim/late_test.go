package sim

import (
	"math/rand"
	"testing"
)

// TestLateOrderByKey checks same-tick late events run in key order
// regardless of scheduling order.
func TestLateOrderByKey(t *testing.T) {
	e := New()
	var got []int
	for _, k := range []uint64{3, 0, 2, 1} {
		k := k
		e.ScheduleLateCtx(10, k, func(_, _ uint64) { got = append(got, int(k)) }, 0)
	}
	e.Run()
	for i, k := range got {
		if k != i {
			t.Fatalf("key order broken: %v", got)
		}
	}
	if len(got) != 4 {
		t.Fatalf("ran %d events, want 4", len(got))
	}
}

// TestLateOrderSeqTiebreak checks equal (at, key) falls back to
// scheduling order.
func TestLateOrderSeqTiebreak(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 4; i++ {
		i := i
		e.ScheduleLateCtx(10, 7, func(_, _ uint64) { got = append(got, i) }, 0)
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("seq order broken: %v", got)
		}
	}
}

// TestLanePriority checks the wheel lane drains before the late lane at
// every tick, including zero-delay work scheduled BY a late event.
func TestLanePriority(t *testing.T) {
	e := New()
	var got []string
	e.ScheduleLateCtx(5, 1, func(_, _ uint64) {
		got = append(got, "late1")
		// Zero-delay lane-0 follow-up must run before the next late
		// event at this tick (the hybrid controller relies on this).
		runAt(e, e.Now(), func() { got = append(got, "wheel-nested") })
	}, 0)
	e.ScheduleLateCtx(5, 2, func(_, _ uint64) { got = append(got, "late2") }, 0)
	runAt(e, 5, func() { got = append(got, "wheel") })
	e.Run()

	want := []string{"wheel", "late1", "wheel-nested", "late2"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestLatePending checks Pending counts late events and Stop clears
// them.
func TestLatePendingAndStop(t *testing.T) {
	e := New()
	runAt(e, 3, func() {})
	e.ScheduleLateCtx(5, 0, func(_, _ uint64) {}, 0)
	e.ScheduleLateCtx(9000, 1, func(_, _ uint64) {}, 0) // far future
	if got := e.Pending(); got != 3 {
		t.Fatalf("Pending = %d, want 3", got)
	}
	e.Stop()
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending after Stop = %d, want 0", got)
	}
	e.Run() // must be a no-op, not a crash
	if e.nsteps != 0 {
		t.Fatalf("events ran after Stop")
	}
}

// TestStopFromLateEvent stops the engine from inside a late event
// mid-tick; nothing after it may run.
func TestStopFromLateEvent(t *testing.T) {
	e := New()
	ran := 0
	e.ScheduleLateCtx(5, 0, func(_, _ uint64) { ran++; e.Stop() }, 0)
	e.ScheduleLateCtx(5, 1, func(_, _ uint64) { ran++ }, 0)
	runAt(e, 6, func() { ran++ })
	e.RunUntil(100)
	if ran != 1 {
		t.Fatalf("%d events ran after mid-tick Stop, want 1", ran)
	}
}

// TestLateRunUntilBoundary checks RunUntil(t) excludes late events AT t
// but leaves the clock parked there, and a later RunUntil picks them
// up — the same boundary contract RunUntil gives lane-0 events.
func TestLateRunUntilBoundary(t *testing.T) {
	e := New()
	ran := false
	e.ScheduleLateCtx(10, 0, func(_, _ uint64) { ran = true }, 0)
	e.RunUntil(10)
	if ran {
		t.Fatal("event at window end ran inside the window")
	}
	if e.Now() != 10 {
		t.Fatalf("Now = %d, want 10", e.Now())
	}
	e.RunUntil(11)
	if !ran {
		t.Fatal("event did not run in the following window")
	}
}

// TestOverflowPromotionAcrossBoundary schedules wheel work beyond the
// wheel span (forcing the overflow heap) interleaved with late events,
// and drives the engine in small RunUntil windows across the promotion
// point.
func TestOverflowPromotionAcrossBoundary(t *testing.T) {
	e := New()
	var got []uint64
	// Beyond the wheel horizon: lands in the overflow heap.
	runAt(e, span+100, func() { got = append(got, e.Now()) })
	e.ScheduleLateCtx(span+100, 0, func(_, _ uint64) { got = append(got, e.Now()+1_000_000) }, 0)
	runAt(e, 5, func() { got = append(got, e.Now()) })

	// Advance in windows that straddle the promotion boundary.
	for end := uint64(0); end <= span+200; end += 64 {
		e.RunUntil(end)
	}
	want := []uint64{5, span + 100, span + 100 + 1_000_000}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestNextLateKeyUnique checks key allocation is a simple counter.
func TestNextLateKeyUnique(t *testing.T) {
	e := New()
	for i := uint64(0); i < 5; i++ {
		if k := e.NextLateKey(); k != i {
			t.Fatalf("NextLateKey = %d, want %d", k, i)
		}
	}
}

// TestSchedulePastLatePanics checks the past-scheduling guard on the
// late lane.
func TestSchedulePastLatePanics(t *testing.T) {
	e := New()
	runAt(e, 10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling a late event in the past did not panic")
			}
		}()
		e.ScheduleLateCtx(5, 0, func(_, _ uint64) {}, 0)
	})
	e.Run()
}

// sched is the scheduling surface the differential test drives: the
// engine, or refSched, which states the documented order directly.
type sched interface {
	now() uint64
	lane0(at uint64, fn func())
	late(at, key uint64, fn func())
	stop()
	pending() int
}

// refSched is a linear-scan reference for the engine's order: the next
// event is always the pending one with the least (time, lane, key,
// scheduling order) — lane 0 before the late lane at a tick, lane-0
// keys ignored. That one rule is the documented nested behaviour: a
// lane-0 follow-up a late event schedules for its own tick runs before
// the next late event, and a same-tick late insert whose key sorts
// below the running one runs next.
type refSched struct {
	t, seq uint64
	evs    []refEvent
}

type refEvent struct {
	at, key, seq uint64
	late         bool
	fn           func()
}

func (a *refEvent) before(b *refEvent) bool {
	switch {
	case a.at != b.at:
		return a.at < b.at
	case a.late != b.late:
		return !a.late
	case a.late && a.key != b.key:
		return a.key < b.key
	}
	return a.seq < b.seq
}

func (r *refSched) now() uint64  { return r.t }
func (r *refSched) stop()        { r.evs = nil }
func (r *refSched) pending() int { return len(r.evs) }

func (r *refSched) lane0(at uint64, fn func()) {
	r.evs = append(r.evs, refEvent{at: at, seq: r.seq, fn: fn})
	r.seq++
}

func (r *refSched) late(at, key uint64, fn func()) {
	r.evs = append(r.evs, refEvent{at: at, key: key, seq: r.seq, late: true, fn: fn})
	r.seq++
}

func (r *refSched) run() {
	for len(r.evs) > 0 {
		m := 0
		for i := range r.evs {
			if r.evs[i].before(&r.evs[m]) {
				m = i
			}
		}
		ev := r.evs[m]
		r.evs = append(r.evs[:m], r.evs[m+1:]...)
		r.t = ev.at
		ev.fn()
	}
}

// engineSched adapts the engine, rotating through every scheduling
// call and checking each callback's firing time against Now and its
// context word against the one it was scheduled with.
type engineSched struct {
	t *testing.T
	e *Engine
	n int
}

func (s *engineSched) now() uint64  { return s.e.Now() }
func (s *engineSched) stop()        { s.e.Stop() }
func (s *engineSched) pending() int { return s.e.Pending() }

func (s *engineSched) check(at uint64) {
	if at != s.e.Now() {
		s.t.Errorf("callback fired with now=%d at engine time %d", at, s.e.Now())
	}
}

func (s *engineSched) lane0(at uint64, fn func()) {
	s.n++
	want := uint64(s.n)
	cb := func(ctx, now uint64) {
		s.check(now)
		if ctx != want {
			s.t.Errorf("callback fired with ctx=%d, want %d", ctx, want)
		}
		fn()
	}
	if s.n%2 == 0 {
		s.e.ScheduleCtx(at, cb, want)
	} else {
		s.e.AfterCtx(at-s.e.Now(), cb, want)
	}
}

func (s *engineSched) late(at, key uint64, fn func()) {
	s.n++
	want := uint64(s.n)
	s.e.ScheduleLateCtx(at, key, func(ctx, now uint64) {
		s.check(now)
		if ctx != want {
			s.t.Errorf("late callback fired with ctx=%d, want %d", ctx, want)
		}
		fn()
	}, want)
}

// lateStep is one executed event of a script: its id, the time it ran
// at and how many events were pending while it ran.
type lateStep struct {
	id, at  uint64
	pending int
}

// lateCoverage counts the script features a run exercised, so the test
// can assert that the cases it exists for did occur.
type lateCoverage struct {
	belowRunning, lateFar, lane0FollowUp, stops int
}

// lateScript schedules a random program on s and records the run order.
// drive runs s until it drains. Every random draw happens inside a
// callback or before the first drive, so two schedulers that run the
// events in the same order draw the same program.
func lateScript(seed int64, s sched, drive func(), cov *lateCoverage) []lateStep {
	rng := rand.New(rand.NewSource(seed))
	var trace []lateStep
	var nextID uint64
	const budget = 2500
	stopID := uint64(1 << 62)
	if rng.Intn(2) == 0 {
		stopID = uint64(300 + rng.Intn(1500))
	}
	// Half the programs draw from few keys, so events sharing (time, key)
	// — the scheduling-order tie — are common.
	keys := 41
	if rng.Intn(2) == 0 {
		keys = 3
	}
	// edge returns a delay just inside or just beyond the span, where
	// direct inserts meet promoted overflow events.
	edge := func() uint64 { return span - 1 + uint64(rng.Intn(2)) }
	randKey := func() uint64 {
		k := uint64(rng.Intn(keys))
		if rng.Intn(2) == 0 {
			k |= 1 << 32 // the DRAM issue-class bit
		}
		return k
	}
	var add func(at uint64, late bool, key uint64)
	add = func(at uint64, late bool, key uint64) {
		id := nextID
		nextID++
		body := func() {
			now := s.now()
			trace = append(trace, lateStep{id, now, s.pending()})
			if id == stopID {
				cov.stops++
				s.stop()
				return
			}
			for n := rng.Intn(4); n > 0 && nextID < budget; n-- {
				switch rng.Intn(9) {
				case 0, 1: // same-tick late insert, any key
					add(now, true, randKey())
				case 2: // same-tick late insert sorting below the running key
					if late && key&^(1<<32) > 0 {
						cov.belowRunning++
						add(now, true, key-1-uint64(rng.Intn(int(key&^(1<<32)))))
					}
				case 3: // late, inside the late span
					add(now+1+uint64(rng.Intn(span-1)), true, randKey())
				case 4: // late, at the edge of the late span
					add(now+edge(), true, randKey())
				case 5: // late, beyond the late span
					cov.lateFar++
					add(now+span+uint64(rng.Intn(3*span)), true, randKey())
				case 6: // lane-0 follow-up at this tick
					if late {
						cov.lane0FollowUp++
					}
					add(now, false, 0)
				case 7:
					add(now+uint64(rng.Intn(300)), false, 0)
				default: // lane 0, at the wheel's edge or beyond it
					d := edge()
					if rng.Intn(2) == 0 {
						d = uint64(rng.Intn(2 * span))
					}
					add(now+d, false, 0)
				}
			}
		}
		if late {
			s.late(at, key, body)
		} else {
			s.lane0(at, body)
		}
	}
	seedBatch := func(base uint64) {
		for i := 0; i < 40; i++ {
			at := base + uint64(rng.Intn(600))
			if rng.Intn(3) == 0 {
				add(at, false, 0)
			} else {
				add(at, true, randKey())
			}
		}
	}
	seedBatch(0)
	drive()
	// A second program after the first drains (or was stopped): the
	// engine must stay usable, with nothing left from the first.
	base := uint64(0)
	if len(trace) > 0 {
		base = trace[len(trace)-1].at + 1000
	}
	stopID = 1 << 62
	seedBatch(base)
	drive()
	return trace
}

// TestPropertyLateMatchesReference checks the engine's run order and
// Pending against refSched on random programs mixing both lanes: keys
// 0–40 with and without the issue-class bit, late events inside and
// beyond the late span, same-tick late inserts from late callbacks
// (some sorting below the running key), lane-0 follow-ups, and a
// mid-tick Stop. The engine runs each program twice: event at a time
// (Run) and tick at a time in RunUntil windows.
func TestPropertyLateMatchesReference(t *testing.T) {
	var cov lateCoverage
	for trial := int64(0); trial < 40; trial++ {
		ref := &refSched{}
		want := lateScript(trial, ref, ref.run, &cov)
		for _, windows := range []bool{false, true} {
			es := &engineSched{t: t, e: New()}
			e := es.e
			drive := e.Run
			if windows {
				drive = func() {
					for e.Pending() > 0 {
						e.RunUntil(e.Now() + 37)
					}
				}
			}
			got := lateScript(trial, es, drive, &lateCoverage{})
			if len(got) != len(want) {
				t.Fatalf("trial %d windows=%v: ran %d events, reference %d", trial, windows, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d windows=%v: step %d = %+v, reference %+v", trial, windows, i, got[i], want[i])
				}
			}
			if e.Pending() != 0 {
				t.Fatalf("trial %d windows=%v: %d events pending after drain", trial, windows, e.Pending())
			}
		}
	}
	if cov.belowRunning == 0 || cov.lateFar == 0 || cov.lane0FollowUp == 0 || cov.stops == 0 {
		t.Fatalf("programs missed a case: %+v", cov)
	}
	t.Logf("coverage over all trials: %+v", cov)
}

// BenchmarkLateLane times the late lane the way the DRAM channels use
// it: 20 channel keys, each with an issue event (issue-class key) that
// re-arms itself 1–8 ticks ahead, as a bus-busy channel does, and
// schedules a completion (bare key) 20–144 ticks ahead. One op is a
// fresh engine running 1<<16 events; ns/event is the layer's number.
func BenchmarkLateLane(b *testing.B) {
	const channels, events = 20, 1 << 16
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New()
		x := uint64(1)
		draw := func(n uint64) uint64 {
			x = x*6364136223846793005 + 1442695040888963407 // LCG
			return (x >> 33) % n
		}
		complete := func(_, _ uint64) {}
		var issue func(ch, now uint64)
		issue = func(ch, now uint64) {
			if e.Steps() >= events {
				return
			}
			e.ScheduleLateCtx(now+20+draw(125), ch, complete, ch)
			e.ScheduleLateCtx(now+1+draw(8), 1<<32|ch, issue, ch)
		}
		for ch := uint64(0); ch < channels; ch++ {
			e.ScheduleLateCtx(0, 1<<32|ch, issue, ch)
		}
		e.RunUntil(1 << 40)
		if e.Pending() != 0 {
			b.Fatalf("%d events left", e.Pending())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
}

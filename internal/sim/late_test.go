package sim

import "testing"

// TestLateOrderByKey checks same-tick late events run in key order
// regardless of scheduling order.
func TestLateOrderByKey(t *testing.T) {
	e := New()
	var got []int
	for _, k := range []uint64{3, 0, 2, 1} {
		k := k
		e.ScheduleLateCall(10, k, func(uint64) { got = append(got, int(k)) })
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
		e.ScheduleLateCall(10, 7, func(uint64) { got = append(got, i) })
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
	e.ScheduleLateCall(5, 1, func(uint64) {
		got = append(got, "late1")
		// Zero-delay lane-0 follow-up must run before the next late
		// event at this tick (the hybrid controller relies on this).
		e.After(0, func() { got = append(got, "wheel-nested") })
	})
	e.ScheduleLateCall(5, 2, func(uint64) { got = append(got, "late2") })
	e.Schedule(5, func() { got = append(got, "wheel") })
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
	e.Schedule(3, func() {})
	e.ScheduleLateCall(5, 0, func(uint64) {})
	e.ScheduleLateCall(9000, 1, func(uint64) {}) // far future
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
	e.ScheduleLateCall(5, 0, func(uint64) { ran++; e.Stop() })
	e.ScheduleLateCall(5, 1, func(uint64) { ran++ })
	e.Schedule(6, func() { ran++ })
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
	e.ScheduleLateCall(10, 0, func(uint64) { ran = true })
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
	const span = 4096 // wheelSpan
	var got []uint64
	// Beyond the wheel horizon: lands in the overflow heap.
	e.Schedule(span+100, func() { got = append(got, e.Now()) })
	e.ScheduleLateCall(span+100, 0, func(uint64) { got = append(got, e.Now()+1_000_000) })
	e.Schedule(5, func() { got = append(got, e.Now()) })

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
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling a late event in the past did not panic")
			}
		}()
		e.ScheduleLateCall(5, 0, func(uint64) {})
	})
	e.Run()
}

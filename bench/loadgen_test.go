package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

// fakeClock is a clock the open-loop generator can be stepped on:
// sleep advances it, plus whatever oversleep the test injects.
type fakeClock struct {
	t         time.Time
	oversleep func(call int) time.Duration
	calls     int
}

func (c *fakeClock) now() time.Time { return c.t }
func (c *fakeClock) sleep(d time.Duration) {
	c.t = c.t.Add(d + c.oversleep(c.calls))
	c.calls++
}

func TestOpenLoopTimesFromDueAndReportsLateness(t *testing.T) {
	t0 := time.Unix(1000, 0)
	// The third sleep overshoots by 25 ms: arrivals 2 and 3 (due at
	// +20 and +30 ms) are both behind, arrival 4 is back on schedule.
	clk := &fakeClock{t: t0.Add(-time.Millisecond), oversleep: func(call int) time.Duration {
		if call == 2 {
			return 25 * time.Millisecond
		}
		return 0
	}}
	var dues []time.Time
	var launchedAt []time.Time
	late := openLoop{now: clk.now, sleep: clk.sleep}.run(t0, 10*time.Millisecond, 6, func(i int, due time.Time) {
		dues = append(dues, due)
		launchedAt = append(launchedAt, clk.now())
	})
	if len(late) != 6 || len(dues) != 6 {
		t.Fatalf("launched %d, lateness for %d, want 6", len(dues), len(late))
	}
	for i, due := range dues {
		if want := t0.Add(time.Duration(i) * 10 * time.Millisecond); !due.Equal(want) {
			t.Errorf("arrival %d due %v, want %v: the schedule must not slip with the generator", i, due, want)
		}
		if got := launchedAt[i].Sub(due).Seconds(); math.Abs(got-late[i]) > 1e-12 {
			t.Errorf("arrival %d launched %.3f s after due, reported lateness %.3f", i, got, late[i])
		}
	}
	want := []float64{0, 0, 0.025, 0.015, 0.005, 0}
	for i := range want {
		if math.Abs(late[i]-want[i]) > 1e-12 {
			t.Errorf("lateness[%d] = %v, want %v", i, late[i], want[i])
		}
	}
}

func TestClosedLoopTalliesFailuresAndKeepsTiming(t *testing.T) {
	var tl tally
	var reachedSecond [clients]bool // written by one client each
	samples := closedLoop(50*time.Millisecond, func(client, seq int) uint8 {
		time.Sleep(time.Millisecond)
		if seq == 1 {
			reachedSecond[client] = true
			tl.note(errors.New("wrong body"))
			return 1
		}
		tl.note(nil)
		return 0
	})
	if tl.attempted != int64(len(samples)) || len(samples) == 0 {
		t.Fatalf("attempted %d, %d samples", tl.attempted, len(samples))
	}
	// How far a client gets in 50 ms is the host's business; each one
	// that reached its second operation failed exactly that one.
	var want int64
	for _, r := range reachedSecond {
		if r {
			want++
		}
	}
	if tl.failed != want || int64(len(tl.messages)) != want {
		t.Errorf("failed = %d with messages %q, want %d", tl.failed, tl.messages, want)
	}
	for _, s := range samples {
		if s.dur < 0.001 || s.end < s.dur {
			t.Fatalf("sample %+v: an operation takes at least its sleep and ends after it started", s)
		}
	}
}

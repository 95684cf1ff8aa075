package main

import (
	"math"
	"testing"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		limit float64
		want  float64
		ok    bool
	}{
		{n: 8, limit: 99, want: 50, ok: false},  // nothing above the median qualifies
		{n: 19, limit: 99, want: 50, ok: false}, // p50 would leave only 9.5 beyond
		{n: 20, limit: 99, want: 50, ok: true},
		{n: 100, limit: 99, want: 90, ok: true},
		{n: 120, limit: 99, want: 100 * (1 - 10.0/120), ok: true},
		{n: 1000, limit: 99, want: 99, ok: true},
		{n: 5000, limit: 99, want: 99, ok: true}, // capped
		{n: 5000, limit: 99.9, want: 99.8, ok: true},
		{n: 400000, limit: 99.9, want: 99.9, ok: true},
	} {
		got, ok := tailPercentile(tc.n, tc.limit)
		if ok != tc.ok || math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("tailPercentile(%d, %v) = %v, %v; want %v, %v", tc.n, tc.limit, got, ok, tc.want, tc.ok)
		}
		if ok {
			beyond := float64(tc.n) * (1 - got/100)
			if beyond < 10-1e-9 {
				t.Errorf("n=%d: p%v leaves %.2f samples beyond it, want >= 10", tc.n, got, beyond)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {10, 1}, {50, 5}, {90, 9}, {91, 10}, {100, 10}} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("percentile(p%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	// statistics.quantiles([...], n=4) of these, computed with CPython.
	for _, tc := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3, 9}, 2, 9.5},
		{[]float64{5, 7}, 4.5, 7.5},
		{[]float64{0.852, 0.872, 0.881, 0.858, 0.9, 0.86, 0.87, 0.875, 0.866, 0.869}, 0.8595, 0.8765},
	} {
		q1, q3 := quartiles(tc.v)
		if math.Abs(q1-tc.q1) > 1e-9 || math.Abs(q3-tc.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.v, q1, q3, tc.q1, tc.q3)
		}
	}
	if got, want := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5/5.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestWindowsTakeMediansAcrossWindows(t *testing.T) {
	// Four one-second windows at 10 completions per second and 1 ms;
	// the third has a stall: 2 completions, 500 ms each.
	var s []sample
	for w := 0; w < 4; w++ {
		n, dur := 10, 0.001
		if w == 2 {
			n, dur = 2, 0.5
		}
		for i := 0; i < n; i++ {
			s = append(s, sample{end: float64(w) + (float64(i)+0.5)/float64(n), dur: dur})
		}
	}
	ws := windows(s, 4, 4, 99)
	if ws.rate != 10 || ws.p50 != 0.001 || ws.tail != 0.001 {
		t.Errorf("one stalled window moved the medians: %+v", ws)
	}
	// Samples outside [0, length) are not counted.
	ws = windows(append(s, sample{end: 9, dur: 7}, sample{end: -1, dur: 7}), 4, 4, 99)
	if ws.rate != 10 || ws.tail != 0.001 {
		t.Errorf("out-of-range samples counted: %+v", ws)
	}
}

package main

import (
	"math"
	"sort"
)

// tailPercentile returns the highest percentile (0-100) a sample of n
// timings supports under the rule "at least ten samples lie beyond
// it", capped at limit (p99 for end-to-end tails, p99.9 for the
// per-layer one). With fewer than 20 samples no percentile above the
// median qualifies and ok is false — the caller reports the median
// only.
func tailPercentile(n int, limit float64) (pct float64, ok bool) {
	if n < 20 {
		return 50, false
	}
	pct = 100 * (1 - 10/float64(n))
	if pct > limit {
		pct = limit
	}
	return pct, true
}

// percentile returns the p-th percentile (0-100) of sorted by the
// nearest-rank method; 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// sortedCopy returns v sorted ascending, leaving v untouched.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of v (mean of the two middle values
// for an even count); 0 for an empty sample.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quartiles returns the first and third quartile of v by the
// "exclusive" method Python's statistics.quantiles(v, n=4) uses, so
// the spreads recorded in README.md are the ones the driver computes.
// It needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 { // i-th of 4 cut points, as CPython computes it
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the
// median — the steadiness figure every bound is compared with.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	m := median(v)
	if m == 0 {
		return math.NaN()
	}
	return (q3 - q1) / math.Abs(m)
}

// sample is one timed operation of a load run: when it completed
// (offset from the run's start) and how long it took, both in
// seconds, plus the request kind it belonged to.
type sample struct {
	end, dur float64
	kind     uint8
}

// windowStats splits a load run into n equal windows by completion
// time and summarises each one: completions per second, the median
// latency and the tail latency at pct. The run-level figures are the
// medians across windows, which one scheduler stall or GC pause in a
// single window cannot move.
type windowStats struct {
	rate, p50, tail float64 // medians across windows; latencies in seconds
	windows         int
}

func windows(samples []sample, length float64, n int, pct float64) windowStats {
	if n < 1 || length <= 0 {
		return windowStats{}
	}
	w := length / float64(n)
	buckets := make([][]float64, n)
	for _, s := range samples {
		i := int(s.end / w)
		if s.end < 0 || i >= n {
			continue
		}
		buckets[i] = append(buckets[i], s.dur)
	}
	var rates, p50s, tails []float64
	for _, b := range buckets {
		if len(b) == 0 {
			rates = append(rates, 0)
			continue
		}
		sort.Float64s(b)
		rates = append(rates, float64(len(b))/w)
		p50s = append(p50s, percentile(b, 50))
		tails = append(tails, percentile(b, pct))
	}
	return windowStats{rate: median(rates), p50: median(p50s), tail: median(tails), windows: n}
}

package trace

import (
	"math"
	"math/bits"
	"sync"
)

// xrng is the generators' inline random stream: splitmix64, chosen over
// math/rand because every trace op costs 3-4 draws and the generators
// sit on the simulation's hot path. Same seed, same stream — the
// determinism guarantee the engine's reproducibility rests on — but the
// streams differ from math/rand's, so result goldens were re-derived
// when this replaced it (DESIGN.md §9).
type xrng struct{ s uint64 }

func newXrng(seed int64) xrng { return xrng{s: uint64(seed)} }

// next returns the next 64 random bits.
func (r *xrng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// float64 returns a uniform float in [0, 1).
func (r *xrng) float64() float64 { return float64(r.next()>>11) * 0x1p-53 }

// uintn returns a uniform integer in [0, n) by multiply-shift; the
// O(n/2^64) bias is far below anything a trace statistic can resolve.
func (r *xrng) uintn(n uint64) uint64 {
	hi, _ := bits.Mul64(r.next(), n)
	return hi
}

// zipfQuantBits sizes the Zipf quantile table: 2^13 cells keep the
// table at 64 kB while resolving the head of the distribution exactly
// (the most popular block alone spans thousands of cells at s=1.2).
const zipfQuantBits = 13

// zipfTable samples k in [0, n) with P(k) ∝ (k+1)^-s through a
// precomputed inverse-CDF quantile table: q[i] is the smallest value
// whose CDF reaches i/2^zipfQuantBits. A draw is one table lookup plus
// a multiply — no transcendentals, unlike math/rand's rejection
// sampler, which pays an Exp and a Log (and sometimes retries) per
// draw. Within a quantile cell the distribution is treated as uniform;
// cells are narrow wherever probability mass is concentrated, so the
// approximation error lives only in the far tail, where adjacent
// blocks' probabilities differ by parts per thousand.
type zipfTable struct {
	q []uint64 // len 2^zipfQuantBits + 1
}

// zipfMemoCap bounds the shared-table memo. The fast-tier size, and so
// n, is user-set, so the key space is open; 64 tables of 64 kB cap the
// memo at 4 MB, far above the handful of distinct (s, n) one run or
// sweep uses.
const zipfMemoCap = 64

type zipfKey struct {
	s float64
	n uint64
}

// zipfMemo holds one table per (s, n) for the life of the process. A
// table is read-only once built (draw only reads q), so every generator
// with equal parameters, on any goroutine, shares it.
var zipfMemo struct {
	sync.Mutex
	m map[zipfKey]*zipfTable
}

// sharedZipfTable returns the process-wide table for (s, n), building
// it on first use. When the memo is full it is dropped whole: tables
// already handed out stay valid, and the next lookups rebuild.
func sharedZipfTable(s float64, n uint64) *zipfTable {
	k := zipfKey{s, n}
	zipfMemo.Lock()
	defer zipfMemo.Unlock()
	if z, ok := zipfMemo.m[k]; ok {
		return z
	}
	z := newZipfTable(s, n)
	if zipfMemo.m == nil || len(zipfMemo.m) >= zipfMemoCap {
		zipfMemo.m = make(map[zipfKey]*zipfTable, zipfMemoCap)
	}
	zipfMemo.m[k] = z
	return z
}

// newZipfTable builds the sampler in O(n); generators take their table
// from sharedZipfTable, which calls this on a miss. Both passes sum the
// exact weights block by block: an approximate CDF would move cells,
// and with them the result goldens.
func newZipfTable(s float64, n uint64) *zipfTable {
	if n < 1 {
		n = 1
	}
	const cells = 1 << zipfQuantBits
	w := make([]float64, n)
	total := 0.0
	for k := range w {
		w[k] = math.Pow(float64(k+1), -s)
		total += w[k]
	}
	q := make([]uint64, cells+1)
	cum := 0.0
	j := 0
	for k := uint64(0); k < n && j <= cells; k++ {
		cum += w[k]
		f := cum / total
		for j <= cells && float64(j)/cells <= f {
			q[j] = k
			j++
		}
	}
	for ; j <= cells; j++ {
		q[j] = n - 1
	}
	return &zipfTable{q: q}
}

// draw samples one value using a single 64-bit draw: the top bits pick
// the quantile cell, the remaining bits place the sample within it.
func (z *zipfTable) draw(r *xrng) uint64 {
	u := r.next()
	i := u >> (64 - zipfQuantBits)
	lo, hi := z.q[i], z.q[i+1]
	if hi <= lo {
		return lo
	}
	off, _ := bits.Mul64(u<<zipfQuantBits, hi-lo+1)
	return lo + off
}

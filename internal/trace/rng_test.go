package trace

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

func TestXrngDeterministicAndSeedSensitive(t *testing.T) {
	a, b := newXrng(42), newXrng(42)
	for i := 0; i < 1000; i++ {
		if a.next() != b.next() {
			t.Fatal("same seed diverged")
		}
	}
	c, d := newXrng(1), newXrng(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if c.next() == d.next() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between adjacent seeds", same)
	}
}

func TestXrngUintnBoundsAndUniformity(t *testing.T) {
	r := newXrng(7)
	var counts [8]int
	const draws = 80000
	for i := 0; i < draws; i++ {
		v := r.uintn(8)
		if v >= 8 {
			t.Fatalf("uintn(8) = %d", v)
		}
		counts[v]++
	}
	for v, n := range counts {
		if frac := float64(n) / draws; frac < 0.115 || frac > 0.135 {
			t.Fatalf("value %d frequency %.3f, want ~0.125", v, frac)
		}
	}
}

func TestXrngFloat64Range(t *testing.T) {
	r := newXrng(3)
	sum := 0.0
	const draws = 50000
	for i := 0; i < draws; i++ {
		f := r.float64()
		if f < 0 || f >= 1 {
			t.Fatalf("float64() = %v", f)
		}
		sum += f
	}
	if mean := sum / draws; mean < 0.49 || mean > 0.51 {
		t.Fatalf("mean %.4f, want ~0.5", mean)
	}
}

// The quantile-table sampler must reproduce the Zipf pmf: compare the
// empirical head probabilities against (k+1)^-s / H(n,s).
func TestZipfTableMatchesPMF(t *testing.T) {
	const (
		s     = 1.2
		n     = 4096
		draws = 400000
	)
	z := newZipfTable(s, n)
	r := newXrng(11)
	counts := map[uint64]int{}
	for i := 0; i < draws; i++ {
		v := z.draw(&r)
		if v >= n {
			t.Fatalf("draw %d out of range [0,%d)", v, n)
		}
		counts[v]++
	}
	total := 0.0
	for k := uint64(0); k < n; k++ {
		total += math.Pow(float64(k+1), -s)
	}
	for k := uint64(0); k < 8; k++ {
		want := math.Pow(float64(k+1), -s) / total
		got := float64(counts[k]) / draws
		if got < 0.9*want-0.005 || got > 1.1*want+0.005 {
			t.Fatalf("P(%d) = %.4f, want %.4f ±10%%", k, got, want)
		}
	}
	// Monotone-ish tail: the first decile of values must hold most of
	// the mass at this skew.
	head := 0
	for k := uint64(0); k < n/10; k++ {
		head += counts[k]
	}
	if frac := float64(head) / draws; frac < 0.80 {
		t.Fatalf("first decile holds %.2f of mass, want >= 0.80", frac)
	}
}

func TestZipfTableSmallN(t *testing.T) {
	for _, n := range []uint64{1, 2, 3} {
		z := newZipfTable(1.2, n)
		r := newXrng(5)
		for i := 0; i < 1000; i++ {
			if v := z.draw(&r); v >= n {
				t.Fatalf("n=%d: draw %d out of range", n, v)
			}
		}
	}
}

// twoPassZipfQ is the reference quantile table, computing each block's
// weight afresh in both passes. newZipfTable must match it bit for bit,
// or every result golden moves.
func twoPassZipfQ(s float64, n uint64) []uint64 {
	const cells = 1 << zipfQuantBits
	total := 0.0
	for k := uint64(0); k < n; k++ {
		total += math.Pow(float64(k+1), -s)
	}
	q := make([]uint64, cells+1)
	cum := 0.0
	j := 0
	for k := uint64(0); k < n && j <= cells; k++ {
		cum += math.Pow(float64(k+1), -s)
		f := cum / total
		for j <= cells && float64(j)/cells <= f {
			q[j] = k
			j++
		}
	}
	for ; j <= cells; j++ {
		q[j] = n - 1
	}
	return q
}

func resetZipfMemo() {
	zipfMemo.Lock()
	zipfMemo.m = nil
	zipfMemo.Unlock()
}

func zipfMemoLen() int {
	zipfMemo.Lock()
	defer zipfMemo.Unlock()
	return len(zipfMemo.m)
}

func sameQ(t *testing.T, what string, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: q[%d] = %d, want %d", what, i, got[i], want[i])
		}
	}
}

func TestSharedZipfTableIsShared(t *testing.T) {
	resetZipfMemo()
	a := sharedZipfTable(1.2, 4096)
	if b := sharedZipfTable(1.2, 4096); b != a {
		t.Fatal("equal (s, n) returned different tables")
	}
	if c := sharedZipfTable(1.3, 4096); c == a {
		t.Fatal("different s returned the same table")
	}
	if d := sharedZipfTable(1.2, 4097); d == a {
		t.Fatal("different n returned the same table")
	}
	// Generators with equal parameters share one table.
	p := CPUParams{Footprint: 1 << 20, Hot: 1 << 18}
	if NewCPU(p, 0, 1).zipf != NewCPU(p, 1<<30, 2).zipf {
		t.Fatal("generators with equal parameters hold different tables")
	}
}

func TestSharedZipfTableMatchesTwoPass(t *testing.T) {
	for _, n := range []uint64{1, 2, 1000, 16384} {
		want := twoPassZipfQ(1.2, n)
		sameQ(t, "newZipfTable", newZipfTable(1.2, n).q, want)
		sameQ(t, "sharedZipfTable", sharedZipfTable(1.2, n).q, want)
	}
}

func TestZipfMemoBounded(t *testing.T) {
	resetZipfMemo()
	for n := uint64(1); n <= 3*zipfMemoCap; n++ {
		sharedZipfTable(1.1, n)
		if l := zipfMemoLen(); l > zipfMemoCap {
			t.Fatalf("memo holds %d tables after %d keys, cap %d", l, n, zipfMemoCap)
		}
	}
	for _, n := range []uint64{1, zipfMemoCap + 1, 3 * zipfMemoCap} {
		sameQ(t, "after overflow", sharedZipfTable(1.1, n).q, twoPassZipfQ(1.1, n))
	}
}

// Run under -race: overlapping keys from a few goroutines exercise the
// memo's lock and the tables' read-only sharing.
func TestSharedZipfTableConcurrent(t *testing.T) {
	resetZipfMemo()
	ns := []uint64{100, 200, 300}
	want := make([][]uint64, len(ns))
	for i, n := range ns {
		want[i] = twoPassZipfQ(1.2, n)
	}
	const workers = 8
	got := make([][]*zipfTable, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := newXrng(int64(w))
			for i := range ns {
				n := ns[(i+w)%len(ns)]
				z := sharedZipfTable(1.2, n)
				for d := 0; d < 100; d++ {
					if v := z.draw(&r); v >= n {
						t.Errorf("draw %d out of range [0,%d)", v, n)
						return
					}
				}
				got[w] = append(got[w], z)
			}
		}(w)
	}
	wg.Wait()
	tables := map[uint64]*zipfTable{}
	for w, zs := range got {
		for i, z := range zs {
			n := ns[(i+w)%len(ns)]
			if prev, ok := tables[n]; ok && prev != z {
				t.Fatalf("n=%d: goroutines got different tables", n)
			}
			tables[n] = z
		}
	}
	for i, n := range ns {
		sameQ(t, "concurrent", tables[n].q, want[i])
	}
}

// BenchmarkZipfTable times the memo's cold path, one newZipfTable, at
// the Quick-scale hot set of mcf (16 384 blocks) and at Paper scale.
func BenchmarkZipfTable(b *testing.B) {
	for _, n := range []uint64{16384, 524288} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				newZipfTable(1.2, n)
			}
		})
	}
}

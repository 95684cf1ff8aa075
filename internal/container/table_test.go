package container

import (
	"math/rand"
	"testing"
)

func TestTableBasic(t *testing.T) {
	var tab Table
	if _, ok := tab.Get(1); ok {
		t.Fatal("empty table reported a hit")
	}
	tab.Put(0, 10) // key 0 must be storable (block index 0 is real)
	tab.Put(7, 70)
	tab.Put(7, 71) // overwrite
	if v, ok := tab.Get(0); !ok || v != 10 {
		t.Fatalf("Get(0) = %d,%v", v, ok)
	}
	if v, ok := tab.Get(7); !ok || v != 71 {
		t.Fatalf("Get(7) = %d,%v", v, ok)
	}
	if !tab.Has(7) || tab.Has(8) {
		t.Fatal("Has disagrees with Get")
	}
	if tab.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tab.Len())
	}
	tab.Delete(0)
	if _, ok := tab.Get(0); ok {
		t.Fatal("deleted key still present")
	}
	if v, ok := tab.Get(7); !ok || v != 71 {
		t.Fatalf("survivor lost after delete: %d,%v", v, ok)
	}
	tab.Delete(12345) // deleting a missing key is a no-op
	if tab.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tab.Len())
	}
}

// Property test: drive the table and a reference map through mixed
// operations, including colliding keys and growth, to exercise
// backward-shift deletion chains.
func TestTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var tab Table
	ref := map[uint64]int64{}
	for op := 0; op < 200000; op++ {
		// A small key space forces heavy collision/delete churn.
		k := uint64(rng.Intn(512))
		switch rng.Intn(3) {
		case 0:
			v := int64(rng.Intn(1 << 30))
			tab.Put(k, v)
			ref[k] = v
		case 1:
			tab.Delete(k)
			delete(ref, k)
		default:
			v, ok := tab.Get(k)
			rv, rok := ref[k]
			if ok != rok || (ok && v != rv) {
				t.Fatalf("op %d: Get(%d) = %d,%v; want %d,%v", op, k, v, ok, rv, rok)
			}
		}
		if tab.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", op, tab.Len(), len(ref))
		}
	}
	for k, rv := range ref {
		if v, ok := tab.Get(k); !ok || v != rv {
			t.Fatalf("final: Get(%d) = %d,%v; want %d,true", k, v, ok, rv)
		}
	}
}

// FuzzTableVsMap replays an arbitrary byte string as an op sequence
// (2 bits op, 6 bits key) against the map reference. `go test` runs the
// seed corpus; `go test -fuzz=FuzzTableVsMap` explores further. The
// 64-key space aliases every probe chain through the minimum table
// size, which is what shakes out backward-shift ordering bugs.
func FuzzTableVsMap(f *testing.F) {
	f.Add([]byte{0x00, 0x41, 0x82, 0xc3, 0x04, 0x45})
	f.Add([]byte("backward-shift delete, interleaved"))
	f.Fuzz(func(t *testing.T, script []byte) {
		var tab Table
		ref := map[uint64]int64{}
		for i, b := range script {
			k := uint64(b & 0x3f)
			switch b >> 6 {
			case 0, 1:
				tab.Put(k, int64(i))
				ref[k] = int64(i)
			case 2:
				tab.Delete(k)
				delete(ref, k)
			default:
				v, ok := tab.Get(k)
				rv, rok := ref[k]
				if ok != rok || (ok && v != rv) {
					t.Fatalf("op %d: Get(%d) = %d,%v; want %d,%v", i, k, v, ok, rv, rok)
				}
			}
			if tab.Len() != len(ref) {
				t.Fatalf("op %d: Len = %d, want %d", i, tab.Len(), len(ref))
			}
		}
		for k, rv := range ref {
			if v, ok := tab.Get(k); !ok || v != rv {
				t.Fatalf("final: Get(%d) = %d,%v; want %d,true", k, v, ok, rv)
			}
		}
	})
}

// probes returns how many slots a lookup of the stored key k examines.
func probes(tab *Table, k uint64) int {
	m := tab.mask()
	n := 1
	for i := tab.home(k); tab.keys[i] != k+1; i = (i + 1) & m {
		n++
	}
	return n
}

// TestTableSpreadsLineKeys checks the hash on the keys the miss paths
// use: a GPU subslice holds up to 128 misses on line addresses, which
// share their low bits, and lookups of them must stay near one probe.
func TestTableSpreadsLineKeys(t *testing.T) {
	for _, stride := range []uint64{64, 256} {
		var tab Table
		const n = 128
		base := uint64(0x7f3a_c000)
		for i := uint64(0); i < n; i++ {
			tab.Put(base+i*stride, int64(i))
		}
		total := 0
		for i := uint64(0); i < n; i++ {
			total += probes(&tab, base+i*stride)
		}
		mean := float64(total) / n
		t.Logf("stride %d: %.2f probes per lookup", stride, mean)
		if mean > 2 {
			t.Errorf("stride %d: %d keys in %d slots take %.1f probes on average, want <= 2",
				stride, n, len(tab.keys), mean)
		}
	}
}

func BenchmarkTableChurn(b *testing.B) {
	b.ReportAllocs()
	var tab Table
	for i := 0; i < b.N; i++ {
		k := uint64(i) % 4096
		tab.Put(k, int64(i))
		tab.Get(k ^ 0x5a5a)
		if i%2 == 1 {
			tab.Delete(k)
		}
	}
}

// BenchmarkTable measures the table under the cores' MSHR access
// pattern: membership probe, insert, a second line's probe, and every
// other iteration a backward-shift delete, all on line addresses (the
// cores key their pending-miss sets on addr &^ 63).
func BenchmarkTable(b *testing.B) {
	b.ReportAllocs()
	var tab Table
	for i := 0; i < b.N; i++ {
		k := uint64(i) & 1023 << 6
		if !tab.Has(k) {
			tab.Put(k, int64(i))
		}
		tab.Get(k ^ 0x2a5<<6)
		if i&1 == 1 {
			tab.Delete(k)
		}
	}
	if tab.Len() > 1024 {
		b.Fatalf("table holds %d keys, want <= 1024", tab.Len())
	}
}

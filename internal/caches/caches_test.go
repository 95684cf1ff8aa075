package caches

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func small() Config {
	return Config{Name: "t", SizeBytes: 1024, Assoc: 2, BlockBytes: 64, Latency: 4}
}

func TestValidate(t *testing.T) {
	good := small()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Name: "a", SizeBytes: 1024, Assoc: 0, BlockBytes: 64},
		{Name: "b", SizeBytes: 1024, Assoc: 2, BlockBytes: 60},
		{Name: "c", SizeBytes: 64, Assoc: 2, BlockBytes: 64},
		{Name: "d", SizeBytes: 1024 + 64, Assoc: 2, BlockBytes: 64},
		{Name: "e", SizeBytes: 257 * 64, Assoc: 257, BlockBytes: 64}, // way numbers are one byte
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %s validated, want error", cfg.Name)
		}
	}
}

func TestMissThenFillThenHit(t *testing.T) {
	c := New(small())
	if c.Access(0x1000, false) {
		t.Fatal("cold cache hit")
	}
	c.Fill(0x1000, false)
	if !c.Access(0x1000, false) {
		t.Fatal("miss after fill")
	}
	if !c.Access(0x1010, false) {
		t.Fatal("miss within same 64B block")
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(small()) // 8 sets x 2 ways
	setStride := uint64(8 * 64)
	a, b, d := uint64(0), setStride, 2*setStride // all map to set 0
	c.Fill(a, false)
	c.Fill(b, false)
	c.Access(a, false) // a is now MRU
	v := c.Fill(d, false)
	if !v.Valid || v.Addr != b {
		t.Fatalf("evicted %+v, want clean victim %#x", v, b)
	}
	if !c.Contains(a) || !c.Contains(d) || c.Contains(b) {
		t.Fatal("LRU did not keep the recently used block")
	}
}

func TestDirtyVictimSurfaced(t *testing.T) {
	c := New(small())
	setStride := uint64(8 * 64)
	c.Fill(0, false)
	c.Access(0, true) // dirty it
	c.Fill(setStride, false)
	v := c.Fill(2*setStride, false) // evicts block 0 (LRU)
	if !v.Valid || !v.Dirty || v.Addr != 0 {
		t.Fatalf("victim %+v, want dirty block 0", v)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks %d, want 1", c.Stats().Writebacks)
	}
}

func TestFillExistingMergesDirty(t *testing.T) {
	c := New(small())
	c.Fill(0, false)
	v := c.Fill(0, true) // re-fill dirty
	if v.Valid {
		t.Fatalf("refill evicted %+v", v)
	}
	iv := c.Invalidate(0)
	if !iv.Dirty {
		t.Fatal("dirty bit lost on refill of existing line")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(small())
	c.Fill(0x40, true)
	v := c.Invalidate(0x40)
	if !v.Valid || !v.Dirty || v.Addr != 0x40 {
		t.Fatalf("invalidate returned %+v", v)
	}
	if c.Contains(0x40) {
		t.Fatal("block still present after invalidate")
	}
	if v2 := c.Invalidate(0x40); v2.Valid {
		t.Fatal("double invalidate returned a victim")
	}
}

func TestVictimAddrRoundTrips(t *testing.T) {
	c := New(Config{Name: "t", SizeBytes: 4096, Assoc: 1, BlockBytes: 64})
	addr := uint64(0x12340)
	c.Fill(addr, false)
	// Same set, different tag forces eviction of addr's block.
	v := c.Fill(addr+4096, false)
	wantBase := addr &^ 63
	if !v.Valid || v.Addr != wantBase {
		t.Fatalf("victim addr %#x, want block base %#x", v.Addr, wantBase)
	}
}

func TestWorkingSetFitsImpliesHighHitRate(t *testing.T) {
	c := New(Config{Name: "t", SizeBytes: 64 * 1024, Assoc: 8, BlockBytes: 64})
	rng := rand.New(rand.NewSource(7))
	// Working set half the cache size: after warmup, essentially all hits.
	ws := uint64(32 * 1024)
	for i := 0; i < 20000; i++ {
		addr := uint64(rng.Int63n(int64(ws)))
		if !c.Access(addr, false) {
			c.Fill(addr, false)
		}
	}
	if hr := c.Stats().HitRate(); hr < 0.95 {
		t.Fatalf("hit rate %.3f for fitting working set, want > 0.95", hr)
	}
}

func TestThrashingWorkingSetLowHitRate(t *testing.T) {
	c := New(Config{Name: "t", SizeBytes: 4 * 1024, Assoc: 4, BlockBytes: 64})
	// Sequential scan over 16x the cache: every access is a miss after
	// the first pass touches each block once per lap.
	misses := 0
	for lap := 0; lap < 4; lap++ {
		for addr := uint64(0); addr < 64*1024; addr += 64 {
			if !c.Access(addr, false) {
				misses++
				c.Fill(addr, false)
			}
		}
	}
	if rate := c.Stats().HitRate(); rate > 0.01 {
		t.Fatalf("streaming scan hit rate %.3f, want ~0", rate)
	}
	_ = misses
}

// Property: the cache never holds more than assoc blocks of one set, and
// Contains agrees with Access outcomes.
func TestPropertyConsistency(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(Config{Name: "q", SizeBytes: 2048, Assoc: 2, BlockBytes: 64})
		for _, op := range ops {
			addr := uint64(op) * 64
			hit := c.Access(addr, op%2 == 0)
			if hit != c.Contains(addr) && !hit {
				// A miss means Contains must also be false before Fill.
				return false
			}
			if !hit {
				c.Fill(addr, false)
			}
			if !c.Contains(addr) {
				return false
			}
		}
		s := c.Stats()
		return s.Hits+s.Misses == uint64(len(ops))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAccessHit(b *testing.B) {
	c := New(Config{Name: "b", SizeBytes: 1 << 20, Assoc: 16, BlockBytes: 64})
	for addr := uint64(0); addr < 1<<20; addr += 64 {
		c.Fill(addr, false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i%16384)*64, false)
	}
}

// BenchmarkCacheMissFill times the miss path, Access then Fill, on the
// quick configuration's LLC and GPU L1 shapes. A sequential stream over
// four times the capacity misses on every access, and every fourth
// access is a write, so a quarter of the victims are dirty.
func BenchmarkCacheMissFill(b *testing.B) {
	for _, cfg := range []Config{
		{Name: "LLC", SizeBytes: 512 << 10, Assoc: 16, BlockBytes: 64},
		{Name: "GPUL1", SizeBytes: 64 << 10, Assoc: 8, BlockBytes: 64},
	} {
		b.Run(cfg.Name, func(b *testing.B) {
			c := New(cfg)
			span := 4 * cfg.SizeBytes
			var addr uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				write := i&3 == 0
				if !c.Access(addr, write) {
					c.Fill(addr, write)
				}
				addr = (addr + 64) % span
			}
		})
	}
}

package caches

import (
	"math/rand"
	"testing"
)

// refCache is the stamp-based LRU reference: every touch stamps the way
// with a global tick, and a fill takes the lowest-numbered empty way or
// else the way with the oldest stamp. Cache must make the same choices
// with its per-set recency order.
type refCache struct {
	assoc   int
	numSets uint64
	shift   uint
	tags    []uint64 // (tag<<1)|1, or 0 when invalid
	dirty   []bool
	lastUse []uint64
	tick    uint64
	stats   Stats
}

func newRef(cfg Config) *refCache {
	numSets := cfg.SizeBytes / (cfg.BlockBytes * uint64(cfg.Assoc))
	n := numSets * uint64(cfg.Assoc)
	shift := uint(0)
	for 1<<shift < cfg.BlockBytes {
		shift++
	}
	return &refCache{
		assoc: cfg.Assoc, numSets: numSets, shift: shift,
		tags: make([]uint64, n), dirty: make([]bool, n), lastUse: make([]uint64, n),
	}
}

func (r *refCache) find(addr uint64) (set uint64, tag uint64, i int) {
	blk := addr >> r.shift
	set, tag = blk%r.numSets, blk/r.numSets
	base := int(set) * r.assoc
	for w := 0; w < r.assoc; w++ {
		if r.tags[base+w] == tag<<1|1 {
			return set, tag, base + w
		}
	}
	return set, tag, -1
}

func (r *refCache) Access(addr uint64, write bool) bool {
	r.tick++
	if _, _, i := r.find(addr); i >= 0 {
		r.lastUse[i] = r.tick
		r.dirty[i] = r.dirty[i] || write
		r.stats.Hits++
		return true
	}
	r.stats.Misses++
	return false
}

func (r *refCache) Contains(addr uint64) bool {
	_, _, i := r.find(addr)
	return i >= 0
}

func (r *refCache) Fill(addr uint64, dirty bool) Victim {
	set, tag, i := r.find(addr)
	r.tick++
	if i >= 0 {
		r.lastUse[i] = r.tick
		r.dirty[i] = r.dirty[i] || dirty
		return Victim{}
	}
	base := int(set) * r.assoc
	v := -1
	for w := 0; w < r.assoc; w++ {
		if r.tags[base+w] == 0 {
			v = w
			break
		}
		if v < 0 || r.lastUse[base+w] < r.lastUse[base+v] {
			v = w
		}
	}
	i = base + v
	out := Victim{}
	if r.tags[i] != 0 {
		out = Victim{Addr: (r.tags[i]>>1*r.numSets + set) << r.shift, Dirty: r.dirty[i], Valid: true}
		r.stats.Evictions++
		if r.dirty[i] {
			r.stats.Writebacks++
		}
	}
	r.tags[i], r.dirty[i], r.lastUse[i] = tag<<1|1, dirty, r.tick
	return out
}

func (r *refCache) Invalidate(addr uint64) Victim {
	_, _, i := r.find(addr)
	if i < 0 {
		return Victim{}
	}
	out := Victim{Addr: addr >> r.shift << r.shift, Dirty: r.dirty[i], Valid: true}
	r.tags[i], r.dirty[i], r.lastUse[i] = 0, false, 0
	return out
}

// TestMatchesStampLRU drives Cache and the stamp-based reference with
// the same random mix of reads, write hits, clean and dirty fills,
// invalidations and lookups, over a few sets with three times as many
// blocks as ways per set, and requires identical answers and counters.
func TestMatchesStampLRU(t *testing.T) {
	for _, assoc := range []int{1, 2, 3, 8, 16, maxAssoc} {
		const numSets = 3 // not a power of two either
		cfg := Config{Name: "diff", SizeBytes: uint64(numSets*assoc) * 64, Assoc: assoc, BlockBytes: 64}
		c, ref := New(cfg), newRef(cfg)
		rng := rand.New(rand.NewSource(int64(assoc)))
		blocks := numSets * 3 * assoc
		for op := 0; op < 20000; op++ {
			addr := uint64(rng.Intn(blocks))*64 + uint64(rng.Intn(64))
			write := rng.Intn(3) == 0
			switch k := rng.Intn(10); {
			case k < 5: // the request path: look up, fill on a miss
				got, want := c.Access(addr, write), ref.Access(addr, write)
				if got != want {
					t.Fatalf("assoc %d op %d: Access(%#x) = %v, reference %v", assoc, op, addr, got, want)
				}
				if !got {
					if v, w := c.Fill(addr, write), ref.Fill(addr, write); v != w {
						t.Fatalf("assoc %d op %d: Fill(%#x) evicted %+v, reference %+v", assoc, op, addr, v, w)
					}
				}
			case k < 8: // a fill whether or not present (writebacks into the LLC)
				if v, w := c.Fill(addr, write), ref.Fill(addr, write); v != w {
					t.Fatalf("assoc %d op %d: Fill(%#x) evicted %+v, reference %+v", assoc, op, addr, v, w)
				}
			case k < 9:
				if v, w := c.Invalidate(addr), ref.Invalidate(addr); v != w {
					t.Fatalf("assoc %d op %d: Invalidate(%#x) = %+v, reference %+v", assoc, op, addr, v, w)
				}
			default:
				if got, want := c.Contains(addr), ref.Contains(addr); got != want {
					t.Fatalf("assoc %d op %d: Contains(%#x) = %v, reference %v", assoc, op, addr, got, want)
				}
			}
		}
		if c.Stats() != ref.stats {
			t.Fatalf("assoc %d: stats %+v, reference %+v", assoc, c.Stats(), ref.stats)
		}
		if ref.stats.Writebacks == 0 || ref.stats.Evictions == ref.stats.Writebacks {
			t.Fatalf("assoc %d: want both clean and dirty victims, got %+v", assoc, ref.stats)
		}
	}
}

// Package caches provides the SRAM cache models of the processor
// hierarchy: the per-core CPU L2, the per-subslice GPU L1, and the
// shared LLC (Table I). No CPU L1 is modelled: CPU traces are post-L1.
// The caches are functional — they decide hit/miss, maintain LRU state
// and dirty bits, and surface dirty victims — while their latency
// contribution is added by the processor model on the request path.
package caches

import (
	"fmt"
	"math/bits"

	"github.com/hydrogen-sim/hydrogen/internal/bitmath"
)

// Config sizes one cache.
type Config struct {
	Name       string
	SizeBytes  uint64
	Assoc      int
	BlockBytes uint64
	Latency    uint64 // access latency in cycles
}

// maxAssoc is the largest associativity a cache supports: a set's
// recency order stores way numbers in one byte each.
const maxAssoc = 256

// Validate reports whether the configuration describes a buildable cache.
func (c *Config) Validate() error {
	switch {
	case c.Assoc <= 0 || c.Assoc > maxAssoc:
		return fmt.Errorf("cache %s: assoc %d not in [1, %d]", c.Name, c.Assoc, maxAssoc)
	case c.BlockBytes == 0 || c.BlockBytes&(c.BlockBytes-1) != 0:
		return fmt.Errorf("cache %s: block size %d not a power of two", c.Name, c.BlockBytes)
	case c.SizeBytes < c.BlockBytes*uint64(c.Assoc):
		return fmt.Errorf("cache %s: size %d smaller than one set", c.Name, c.SizeBytes)
	case c.SizeBytes%(c.BlockBytes*uint64(c.Assoc)) != 0:
		return fmt.Errorf("cache %s: size %d not a multiple of set size", c.Name, c.SizeBytes)
	}
	return nil
}

// Stats counts cache activity.
type Stats struct {
	Hits, Misses, Evictions, Writebacks uint64
}

// Cache is a set-associative write-back SRAM cache with LRU replacement.
//
// Line state is kept structure-of-arrays, one slot per way, set-major.
// A way's entry in tags is its tag word, tag<<2 | dirty<<1 | 1, when
// valid and 0 when empty: bit 0 is the valid bit and bit 1 the dirty
// bit, so a probe is one compare of the word with the dirty bit masked
// off. The shift costs two bits of tag headroom, which simulated
// physical addresses (< 2^48) never approach. Replacement state is each
// set's recency order: its way numbers, most recently used first, one
// byte each. A touched way moves to the front, so the valid ways stand
// in LRU order and, in a full set, the last entry is the victim.
// Invalidated ways keep their place; a fill takes an empty way before
// consulting the order.
type Cache struct {
	cfg        Config
	tags       []uint64 // numSets*assoc; tag<<2 | dirty<<1 | 1, or 0 when invalid
	order      []uint8  // numSets*assoc; per set, way numbers by recency
	assoc      int
	numSets    uint64
	blockShift uint8       // log2(BlockBytes); block size is validated pow2
	setDiv     bitmath.Div // strength-reduced division by numSets
	stats      Stats
}

// New builds a cache; it panics on an invalid config because cache shapes
// are fixed at system construction and a bad one is a programming error.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	numSets := cfg.SizeBytes / (cfg.BlockBytes * uint64(cfg.Assoc))
	ways := numSets * uint64(cfg.Assoc)
	c := &Cache{
		cfg: cfg, numSets: numSets, assoc: cfg.Assoc,
		tags:       make([]uint64, ways),
		order:      make([]uint8, ways),
		blockShift: uint8(bits.TrailingZeros64(cfg.BlockBytes)),
		setDiv:     bitmath.New(numSets),
	}
	// Every set starts in way order; doubling copies keep the pattern
	// because each copied prefix is a whole number of sets.
	for w := 0; w < cfg.Assoc; w++ {
		c.order[w] = uint8(w)
	}
	for n := cfg.Assoc; n < len(c.order); n *= 2 {
		copy(c.order[n:], c.order[:n])
	}
	return c
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Latency returns the configured access latency in cycles.
func (c *Cache) Latency() uint64 { return c.cfg.Latency }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// A tag word's flag bits, and the shift that places the tag above them.
const (
	lineValid uint64 = 1
	lineDirty uint64 = 2
	tagShift         = 2
)

// tagWord returns the tag word of a valid line holding tag, dirty or not.
func tagWord(tag uint64, dirty bool) uint64 {
	w := tag<<tagShift | lineValid
	if dirty {
		w |= lineDirty
	}
	return w
}

func (c *Cache) index(addr uint64) (set uint64, tag uint64) {
	blk := addr >> c.blockShift
	tag, set = c.setDiv.DivMod(blk)
	return set, tag
}

// probe scans a set for tag and returns the matching way's index into
// the flat arrays, or -1. Access, Contains and Invalidate share it; Fill
// runs its own scan, which also notes the first empty way.
func (c *Cache) probe(set, tag uint64) int {
	base := int(set) * c.assoc
	want := tagWord(tag, false)
	// Range over a subslice so the compiler drops per-way bounds checks.
	for i, v := range c.tags[base : base+c.assoc] {
		if v&^lineDirty == want {
			return base + i
		}
	}
	return -1
}

// touch makes way w of the set starting at base its most recently used.
func (c *Cache) touch(base, w int) {
	o := c.order[base : base+c.assoc]
	p := 0
	for int(o[p]) != w {
		p++
	}
	toFront(o, p)
}

// toFront moves o[p] to the front of a recency order.
func toFront(o []uint8, p int) {
	w := o[p]
	copy(o[1:p+1], o[:p])
	o[0] = w
}

// Victim describes a dirty block evicted by a fill.
type Victim struct {
	Addr  uint64
	Dirty bool
	Valid bool // false when the fill used an empty way
}

// Access looks up addr, updating LRU state and the dirty bit on a write
// hit. It reports whether the access hit. Misses do NOT allocate; call
// Fill once the data returns, which mirrors how the request path works.
func (c *Cache) Access(addr uint64, write bool) bool {
	set, tag := c.index(addr)
	if i := c.probe(set, tag); i >= 0 {
		base := int(set) * c.assoc
		c.touch(base, i-base)
		if write {
			c.tags[i] |= lineDirty
		}
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	return false
}

// Contains reports whether addr is cached, without touching LRU state.
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.index(addr)
	return c.probe(set, tag) >= 0
}

// Fill installs addr (marking it dirty if dirty is set) and returns the
// victim it displaced: the lowest-numbered empty way, or else the least
// recently used one. Filling a block that is already present only
// updates its dirty bit and recency.
func (c *Cache) Fill(addr uint64, dirty bool) Victim {
	set, tag := c.index(addr)
	base := int(set) * c.assoc
	want := tagWord(tag, dirty)
	w := -1
	for i, v := range c.tags[base : base+c.assoc] {
		if v&^lineDirty == want&^lineDirty {
			c.tags[base+i] = v | want
			c.touch(base, i)
			return Victim{}
		}
		if v == 0 && w < 0 {
			w = i
		}
	}
	if w >= 0 {
		c.tags[base+w] = want
		c.touch(base, w)
		return Victim{}
	}
	o := c.order[base : base+c.assoc]
	i := base + int(o[len(o)-1])
	old := c.tags[i]
	out := Victim{Addr: c.addrOf(set, old>>tagShift), Dirty: old&lineDirty != 0, Valid: true}
	c.stats.Evictions++
	if out.Dirty {
		c.stats.Writebacks++
	}
	c.tags[i] = want
	toFront(o, len(o)-1)
	return out
}

// Invalidate drops addr if present and returns its victim record (so a
// dirty copy can be written back).
func (c *Cache) Invalidate(addr uint64) Victim {
	set, tag := c.index(addr)
	if i := c.probe(set, tag); i >= 0 {
		out := Victim{Addr: c.addrOf(set, tag), Dirty: c.tags[i]&lineDirty != 0, Valid: true}
		c.tags[i] = 0
		return out
	}
	return Victim{}
}

func (c *Cache) addrOf(set, tag uint64) uint64 {
	return (tag*c.numSets + set) << c.blockShift
}

// HitRate returns hits/(hits+misses), or 0 for an untouched cache.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

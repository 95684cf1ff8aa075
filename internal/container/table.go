// Package container holds the allocation-free data structures shared by
// the simulator's hot paths. Table is a linear-probing open-addressed
// hash table from uint64 keys to one int64 value word. It replaces the
// map[uint64] structures on the miss paths — the hybrid controller's
// MSHR and fill registries and the CPU/GPU cores' pending-miss sets:
// no per-entry allocation, no hash-map write barriers, and deletion by
// backward shift instead of tombstones, so lookups stay O(1) at the
// bounded in-flight counts these structures hold (MSHRs, migration
// queue slots, MLP windows).
package container

import "math/bits"

// Table maps uint64 keys to one int64 value word. The zero value is an
// empty table ready for use.
//
// Keys are stored +1 so the zero word marks an empty slot; the table
// therefore cannot hold the key ^uint64(0), which never occurs in the
// simulator (keys are block or line indices).
type Table struct {
	keys  []uint64 // key+1; 0 = empty
	vals  []int64
	n     int
	shift uint8 // 64 - log2(len(keys)): home takes the hash's top bits
}

const minTableSize = 64

// home is the key's home slot by Fibonacci hashing: the top log2(size)
// bits of k times 2^64/phi. The product's low bits would not do: they
// depend only on k's low bits, and the cores' pending-miss sets key on
// line addresses, whose low six bits are zero, so the masked product
// gives every line key one of 4 home slots in a 256-slot table.
func (t *Table) home(k uint64) uint64 {
	return (k * 0x9E3779B97F4A7C15) >> t.shift
}

func (t *Table) mask() uint64 { return uint64(len(t.keys) - 1) }

// Len returns the number of stored entries.
func (t *Table) Len() int { return t.n }

// Get returns the value stored for k.
func (t *Table) Get(k uint64) (int64, bool) {
	if t.n == 0 {
		return 0, false
	}
	m := t.mask()
	for i := t.home(k); ; i = (i + 1) & m {
		stored := t.keys[i]
		if stored == 0 {
			return 0, false
		}
		if stored == k+1 {
			return t.vals[i], true
		}
	}
}

// Has reports whether k is present, for callers using the table as a
// set (the cores' MSHR membership checks).
func (t *Table) Has(k uint64) bool {
	_, ok := t.Get(k)
	return ok
}

// Put inserts or replaces the value for k.
func (t *Table) Put(k uint64, v int64) {
	if len(t.keys) == 0 || t.n*2 >= len(t.keys) {
		t.grow()
	}
	m := t.mask()
	for i := t.home(k); ; i = (i + 1) & m {
		stored := t.keys[i]
		if stored == 0 {
			t.keys[i] = k + 1
			t.vals[i] = v
			t.n++
			return
		}
		if stored == k+1 {
			t.vals[i] = v
			return
		}
	}
}

// Delete removes k, compacting the probe chain by backward shift so no
// tombstones accumulate.
func (t *Table) Delete(k uint64) {
	if t.n == 0 {
		return
	}
	m := t.mask()
	i := t.home(k)
	for {
		stored := t.keys[i]
		if stored == 0 {
			return
		}
		if stored == k+1 {
			break
		}
		i = (i + 1) & m
	}
	t.n--
	// Backward-shift: pull forward any element whose probe chain passes
	// through the vacated slot.
	for {
		t.keys[i] = 0
		j := i
		for {
			j = (j + 1) & m
			stored := t.keys[j]
			if stored == 0 {
				return
			}
			home := t.home(stored - 1)
			// The element at j may move to i only if its home slot does
			// not lie strictly between i (exclusive) and j (inclusive)
			// on the probe circle.
			if (j-home)&m >= (j-i)&m {
				t.keys[i] = stored
				t.vals[i] = t.vals[j]
				i = j
				break
			}
		}
	}
}

func (t *Table) grow() {
	size := minTableSize
	if len(t.keys) > 0 {
		size = len(t.keys) * 2
	}
	// Keep power-of-two sizing for mask arithmetic.
	if size&(size-1) != 0 {
		size = 1 << bits.Len(uint(size))
	}
	oldKeys, oldVals := t.keys, t.vals
	t.keys = make([]uint64, size)
	t.vals = make([]int64, size)
	t.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	t.n = 0
	for i, stored := range oldKeys {
		if stored != 0 {
			t.Put(stored-1, oldVals[i])
		}
	}
}

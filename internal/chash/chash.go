// Package chash implements rendezvous (highest-random-weight) hashing,
// the consistent-hashing scheme Hydrogen uses to pick which shared-channel
// ways of each set are allocated to the CPU (paper Section IV-D).
//
// Rendezvous hashing has exactly the property the reconfiguration needs:
// when the number of selected buckets changes by one, the selection for
// every key changes by at most one bucket, so growing or shrinking the
// CPU's capacity share relocates at most one way per set.
package chash

import (
	"math/bits"
	"sort"
)

// Score returns a deterministic 64-bit weight for the (key, bucket) pair.
// It is a splitmix64-style finalizer over the mixed inputs; quality only
// needs to be good enough to spread way selection across sets.
func Score(key, bucket uint64) uint64 {
	x := key*0x9e3779b97f4a7c15 ^ (bucket+1)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Rank returns the buckets ordered by descending score for key. Ties are
// broken by bucket value, so the order is total and deterministic.
func Rank(key uint64, buckets []int) []int {
	out := make([]int, len(buckets))
	copy(out, buckets)
	sort.Slice(out, func(i, j int) bool {
		si, sj := Score(key, uint64(out[i])), Score(key, uint64(out[j]))
		if si != sj {
			return si > sj
		}
		return out[i] < out[j]
	})
	return out
}

// Select returns the k highest-ranked buckets for key. If k exceeds the
// number of buckets, all buckets are returned.
func Select(key uint64, buckets []int, k int) []int {
	r := Rank(key, buckets)
	if k > len(r) {
		k = len(r)
	}
	return r[:k]
}

// SelectBits is Select over the buckets 0..63 given as a bit set: it
// returns, as a bit set, the k highest-ranked buckets of the set for
// key, under Rank's order (score descending, then bucket ascending). It
// ranks in a fixed buffer, so it does not allocate.
func SelectBits(key, buckets uint64, k int) uint64 {
	var cand [64]struct{ score, bucket uint64 }
	n := 0
	for b := buckets; b != 0; b &= b - 1 {
		i := uint64(bits.TrailingZeros64(b))
		cand[n].score, cand[n].bucket = Score(key, i), i
		n++
	}
	var out uint64
	// Partial selection sort: each pass moves the best remaining
	// candidate to the front.
	for j := 0; j < k && j < n; j++ {
		best := j
		for i := j + 1; i < n; i++ {
			c, b := &cand[i], &cand[best]
			if c.score > b.score || c.score == b.score && c.bucket < b.bucket {
				best = i
			}
		}
		out |= 1 << cand[best].bucket
		cand[j], cand[best] = cand[best], cand[j]
	}
	return out
}

// --- string-keyed rendezvous ---
//
// The cluster layer reuses the paper's way-placement trick one level
// up: content-addressed job IDs are placed onto named peers. Keys and
// members are strings there (hex SHA-256 job IDs, operator-chosen peer
// IDs), so the same highest-random-weight scheme is exposed over
// string pairs: adding or removing one member relocates each key to at
// most one new owner, and a key whose owner survives never moves.

// fnv1a is the 64-bit FNV-1a hash of s folded over h, so a (key,
// member) pair can be hashed incrementally with a domain separator
// between the two strings.
func fnv1a(h uint64, s string) uint64 {
	const prime = 1099511628211
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * prime
	}
	return h
}

// ScoreString returns a deterministic 64-bit weight for the (key,
// member) string pair: FNV-1a over both strings (with a separator so
// ("ab","c") and ("a","bc") differ) finalized by the same
// splitmix64-style mixer as Score.
func ScoreString(key, member string) uint64 {
	const offset = 14695981039346656037
	h := fnv1a(offset, key)
	h = (h ^ 0xff) * 1099511628211 // separator byte outside both alphabets
	h = fnv1a(h, member)
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// RankStrings returns the members ordered by descending score for key.
// Ties break by member value, so the order is total and deterministic
// across processes — every peer computes the same ranking.
func RankStrings(key string, members []string) []string {
	out := make([]string, len(members))
	copy(out, members)
	sort.Slice(out, func(i, j int) bool {
		si, sj := ScoreString(key, out[i]), ScoreString(key, out[j])
		if si != sj {
			return si > sj
		}
		return out[i] < out[j]
	})
	return out
}

// OwnerString returns the highest-ranked member for key; ok is false
// when members is empty.
func OwnerString(key string, members []string) (owner string, ok bool) {
	if len(members) == 0 {
		return "", false
	}
	best := members[0]
	bestScore := ScoreString(key, best)
	for _, m := range members[1:] {
		s := ScoreString(key, m)
		if s > bestScore || (s == bestScore && m < best) {
			best, bestScore = m, s
		}
	}
	return best, true
}

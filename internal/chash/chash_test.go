package chash

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"testing/quick"
)

func TestScoreDeterministic(t *testing.T) {
	if Score(1, 2) != Score(1, 2) {
		t.Fatal("Score is not deterministic")
	}
	if Score(1, 2) == Score(2, 1) {
		t.Fatal("Score ignores argument order; keys and buckets collide")
	}
}

func TestRankIsPermutation(t *testing.T) {
	buckets := []int{0, 1, 2, 3}
	r := Rank(42, buckets)
	if len(r) != len(buckets) {
		t.Fatalf("rank has %d entries, want %d", len(r), len(buckets))
	}
	seen := map[int]bool{}
	for _, b := range r {
		if seen[b] {
			t.Fatalf("bucket %d appears twice in %v", b, r)
		}
		seen[b] = true
	}
}

func TestRankDoesNotMutateInput(t *testing.T) {
	buckets := []int{3, 1, 2, 0}
	Rank(7, buckets)
	want := []int{3, 1, 2, 0}
	for i := range want {
		if buckets[i] != want[i] {
			t.Fatalf("input mutated to %v", buckets)
		}
	}
}

// The key consistency property: Select(key, b, k) is a prefix of
// Select(key, b, k+1), so resizing the CPU share moves at most one way.
func TestSelectMonotone(t *testing.T) {
	buckets := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for key := uint64(0); key < 2000; key++ {
		prev := Select(key, buckets, 0)
		for k := 1; k <= len(buckets); k++ {
			cur := Select(key, buckets, k)
			if len(cur) != k {
				t.Fatalf("key %d k %d: got %d selections", key, k, len(cur))
			}
			for i := range prev {
				if cur[i] != prev[i] {
					t.Fatalf("key %d: Select(%d)=%v is not a prefix of Select(%d)=%v",
						key, k-1, prev, k, cur)
				}
			}
			prev = cur
		}
	}
}

// Removing one bucket only remaps keys that had selected that bucket.
func TestBucketRemovalMinimalChurn(t *testing.T) {
	all := []int{0, 1, 2, 3}
	without2 := []int{0, 1, 3}
	for key := uint64(0); key < 2000; key++ {
		before := Select(key, all, 1)[0]
		after := Select(key, without2, 1)[0]
		if before != 2 && after != before {
			t.Fatalf("key %d moved from %d to %d though bucket 2 was removed", key, before, after)
		}
	}
}

// Selection should spread roughly evenly across buckets over many keys,
// since Hydrogen relies on GPU ways landing on different channels in
// different sets to recover full shared-channel bandwidth.
func TestSelectionBalance(t *testing.T) {
	buckets := []int{0, 1, 2, 3}
	counts := map[int]int{}
	const n = 40000
	for key := uint64(0); key < n; key++ {
		counts[Select(key, buckets, 1)[0]]++
	}
	for b, c := range counts {
		frac := float64(c) / n
		if frac < 0.22 || frac > 0.28 {
			t.Fatalf("bucket %d selected %.3f of keys, want ~0.25", b, frac)
		}
	}
}

func TestSelectKTooLarge(t *testing.T) {
	got := Select(1, []int{5, 6}, 10)
	if len(got) != 2 {
		t.Fatalf("Select with k>len returned %v", got)
	}
}

// --- string-keyed rendezvous (cluster placement) ---

// jobIDCorpus builds n realistic job keys: hex SHA-256 digests, the
// exact shape of hydroserved's content-addressed job IDs.
func jobIDCorpus(n int) []string {
	out := make([]string, n)
	for i := range out {
		sum := sha256.Sum256([]byte(fmt.Sprintf("job-%d", i)))
		out[i] = hex.EncodeToString(sum[:])
	}
	return out
}

func TestScoreStringDeterministicAndOrdered(t *testing.T) {
	if ScoreString("k", "m") != ScoreString("k", "m") {
		t.Fatal("ScoreString is not deterministic")
	}
	if ScoreString("ab", "c") == ScoreString("a", "bc") {
		t.Fatal("ScoreString has no domain separation between key and member")
	}
	members := []string{"a", "b", "c", "d"}
	r := RankStrings("somekey", members)
	if len(r) != len(members) {
		t.Fatalf("rank has %d entries, want %d", len(r), len(members))
	}
	seen := map[string]bool{}
	for _, m := range r {
		if seen[m] {
			t.Fatalf("member %q appears twice in %v", m, r)
		}
		seen[m] = true
	}
	owner, ok := OwnerString("somekey", members)
	if !ok || owner != r[0] {
		t.Fatalf("OwnerString=%q ok=%v, want head of RankStrings %q", owner, ok, r[0])
	}
	if _, ok := OwnerString("somekey", nil); ok {
		t.Fatal("OwnerString over no members reported ok")
	}
}

// The cluster's minimal-disruption property, as a property test over a
// corpus of real job IDs: removing one member from an N-peer ring
// reassigns only ~1/N of the keys, and NEVER changes the owner of a
// key whose owner survived.
func TestMemberRemovalMinimalDisruption(t *testing.T) {
	members := []string{"peer-a", "peer-b", "peer-c", "peer-d", "peer-e"}
	corpus := jobIDCorpus(4000)
	for _, gone := range members {
		survivors := make([]string, 0, len(members)-1)
		for _, m := range members {
			if m != gone {
				survivors = append(survivors, m)
			}
		}
		moved, hadGone := 0, 0
		for _, key := range corpus {
			before, _ := OwnerString(key, members)
			after, _ := OwnerString(key, survivors)
			if before == gone {
				hadGone++
				continue
			}
			if after != before {
				t.Fatalf("key %.12s moved %s -> %s though its owner survived the removal of %s",
					key, before, after, gone)
			}
		}
		moved = hadGone
		// Every relocated key must have been owned by the removed member,
		// and the removed member's share should be ~1/N of the corpus.
		frac := float64(moved) / float64(len(corpus))
		if frac < 0.12 || frac > 0.30 {
			t.Fatalf("removing %s relocated %.3f of keys, want ~%.2f",
				gone, frac, 1.0/float64(len(members)))
		}
	}
}

// Adding a member back is the inverse move: each key either keeps its
// owner or relocates to exactly the new member.
func TestMemberAdditionOnlyCapturesKeys(t *testing.T) {
	base := []string{"peer-a", "peer-b", "peer-c"}
	grown := append(append([]string(nil), base...), "peer-d")
	captured := 0
	corpus := jobIDCorpus(3000)
	for _, key := range corpus {
		before, _ := OwnerString(key, base)
		after, _ := OwnerString(key, grown)
		if after != before {
			if after != "peer-d" {
				t.Fatalf("key %.12s moved %s -> %s on the ADDITION of peer-d", key, before, after)
			}
			captured++
		}
	}
	frac := float64(captured) / float64(len(corpus))
	if frac < 0.15 || frac > 0.35 {
		t.Fatalf("new member captured %.3f of keys, want ~0.25", frac)
	}
}

// Placement should spread job IDs roughly evenly across members — the
// load-balance half of the routing story.
func TestStringPlacementBalance(t *testing.T) {
	members := []string{"a", "b", "c", "d"}
	counts := map[string]int{}
	for _, key := range jobIDCorpus(40000) {
		owner, _ := OwnerString(key, members)
		counts[owner]++
	}
	for m, c := range counts {
		frac := float64(c) / 40000
		if frac < 0.22 || frac > 0.28 {
			t.Fatalf("member %s owns %.3f of keys, want ~0.25", m, frac)
		}
	}
}

func TestPropertyPrefix(t *testing.T) {
	f := func(key uint64, nb uint8) bool {
		n := int(nb%8) + 2
		buckets := make([]int, n)
		for i := range buckets {
			buckets[i] = i
		}
		for k := 1; k < n; k++ {
			a, b := Select(key, buckets, k), Select(key, buckets, k+1)
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// SelectBits must pick exactly Select's buckets, for every bucket subset
// of a 16-way set and every k, and must not allocate.
func TestSelectBitsMatchesSelect(t *testing.T) {
	for key := uint64(0); key < 64; key++ {
		for set := uint64(0); set < 1<<16; set += 97 {
			var buckets []int
			for b := 0; b < 16; b++ {
				if set&(1<<b) != 0 {
					buckets = append(buckets, b)
				}
			}
			for k := 0; k <= len(buckets)+1; k++ {
				var want uint64
				for _, b := range Select(key, buckets, k) {
					want |= 1 << b
				}
				if got := SelectBits(key, set, k); got != want {
					t.Fatalf("SelectBits(%d, %#x, %d) = %#x, Select gives %#x", key, set, k, got, want)
				}
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { SelectBits(7, 0xfff0, 5) }); n != 0 {
		t.Fatalf("SelectBits allocates %.0f times per call", n)
	}
}

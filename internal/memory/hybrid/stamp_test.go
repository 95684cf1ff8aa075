package hybrid_test

import (
	"math/rand"
	"testing"

	"github.com/hydrogen-sim/hydrogen/internal/core"
	"github.com/hydrogen-sim/hydrogen/internal/memory/dram"
	"github.com/hydrogen-sim/hydrogen/internal/memory/hybrid"
	"github.com/hydrogen-sim/hydrogen/internal/sim"
)

// refWay is a way of the last-use reference: the cycle of its last
// touch, as the tag store kept it before recency stamps.
type refWay struct {
	valid, busy bool
	lastUse     uint64
}

// TestStampsMatchLastUse drives the controller's recency stamps beside
// a reference that keeps a last-use cycle per way, through random hits,
// installs, swaps, invalidations and fill completions, with about half
// of the steps in the cycle of the step before, so one set is often
// touched twice in a cycle. Every so often a set's stamps are raised,
// order and ties kept, to just below the cap, and set 0 starts there,
// so the next touches compact it. After each step the two sides must
// order the set's valid ways alike, and LRU victims and Hydrogen's swap
// targets must pick the same way.
func TestStampsMatchLastUse(t *testing.T) {
	const (
		sets  = 4
		assoc = 8
		steps = 200_000
	)
	hcfg := core.Config{Groups: 4, Assoc: assoc, CPUWays: 6, CPUGroups: 2,
		TokenPeriod: 100_000, SlowBytesPerCycle: 64, BlockBytes: 256}
	h, err := core.New(hcfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	fast, err := dram.NewTier(eng, dram.HBM2E())
	if err != nil {
		t.Fatal(err)
	}
	slow, err := dram.NewTier(eng, dram.DDR4())
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := hybrid.New(eng, hybrid.Config{Assoc: assoc, FastCapacityBytes: sets * assoc * 256}, fast, slow, h)
	if err != nil {
		t.Fatal(err)
	}
	h.SetNumSets(ctl.NumSets())

	ref := make([][assoc]refWay, sets)
	rng := rand.New(rand.NewSource(7))
	now, blk := uint64(1), uint64(0)
	lastTouch := make([]uint64, sets)
	var sameCycle, compactions, swaps int

	top := func(set uint64) uint64 {
		m := uint64(0)
		for _, v := range ctl.Views(set) {
			m = max(m, v.LastUse)
		}
		return m
	}
	// raise shifts set's stamps up to within two of the cap.
	raise := func(set uint64) {
		tp, below := top(set), uint64(rng.Intn(3))
		if tp == 0 || tp+below > hybrid.StampMax {
			return
		}
		off := hybrid.StampMax - below - tp
		for w, v := range ctl.Views(set) {
			if v.Valid {
				ctl.SetStamp(set, w, v.LastUse+off)
			}
		}
	}
	touch := func(set uint64, w int, install bool) {
		if lastTouch[set] == now {
			sameCycle++
		}
		lastTouch[set] = now
		before := top(set)
		if install {
			blk++
			src := dram.Source(rng.Intn(2))
			ctl.InstallWay(set, w, blk*sets+set, src, now)
			ref[set][w] = refWay{valid: true, busy: true, lastUse: now}
		} else {
			ctl.TouchWay(set, w, now)
			ref[set][w].lastUse = now
		}
		if ctl.Views(set)[w].LastUse < before {
			compactions++
		}
	}
	check := func(step int, set uint64) {
		got := append([]hybrid.WayView(nil), ctl.Views(set)...)
		want := append([]hybrid.WayView(nil), got...)
		for w := range want {
			r := ref[set][w]
			if got[w].Valid != r.valid || got[w].Busy != r.busy {
				t.Fatalf("step %d set %d way %d: view %+v, reference %+v", step, set, w, got[w], r)
			}
			want[w].LastUse = r.lastUse
		}
		for i := range got {
			for j := range got {
				if !got[i].Valid || !got[j].Valid {
					continue
				}
				if (got[i].LastUse < got[j].LastUse) != (want[i].LastUse < want[j].LastUse) {
					t.Fatalf("step %d set %d: ways %d and %d have stamps %d and %d, last uses %d and %d",
						step, set, i, j, got[i].LastUse, got[j].LastUse, want[i].LastUse, want[j].LastUse)
				}
			}
		}
		masks := [...]int{1<<assoc - 1, rng.Intn(1 << assoc), rng.Intn(1 << assoc), rng.Intn(1 << assoc)}
		for _, m := range masks {
			allowed := func(w int) bool { return m&(1<<w) != 0 }
			if g, r := hybrid.LRUVictim(got, allowed), hybrid.LRUVictim(want, allowed); g != r {
				t.Fatalf("step %d set %d mask %#x: LRU victim %d from stamps, %d from last uses", step, set, m, g, r)
			}
		}
		for hit := range got {
			g := h.SwapTarget(set, hit, got, dram.SourceCPU)
			if r := h.SwapTarget(set, hit, want, dram.SourceCPU); g != r {
				t.Fatalf("step %d set %d hit way %d: swap target %d from stamps, %d from last uses", step, set, hit, g, r)
			}
			if g >= 0 {
				swaps++
			}
		}
	}

	// Set 0 starts full, with ties, and just below the cap.
	for w := 0; w < assoc; w++ {
		touch(0, w, true)
		now += uint64(w % 2)
	}
	raise(0)
	check(-1, 0)

	for step := 0; step < steps; step++ {
		if rng.Intn(2) == 0 {
			now += 1 + uint64(rng.Intn(3))
			if rng.Intn(500) == 0 {
				s := uint64(rng.Intn(sets))
				raise(s)
				check(step, s)
			}
		}
		set, w := uint64(rng.Intn(sets)), rng.Intn(assoc)
		r := &ref[set][w]
		switch op := rng.Intn(10); {
		case op < 4: // a fast hit, or an install into an empty way
			touch(set, w, !r.valid)
		case op < 6: // a migration into the LRU way
			if v := hybrid.LRUVictim(ctl.Views(set), func(int) bool { return true }); v >= 0 {
				touch(set, v, true)
			}
		case op == 6: // a fast memory swap
			u := rng.Intn(assoc)
			ctl.SwapWays(set, w, u)
			ref[set][w], ref[set][u] = ref[set][u], ref[set][w]
		case op == 7: // a lazy invalidation
			ctl.InvalidateWay(set, w)
			*r = refWay{}
		default: // a fill completes
			if r.valid {
				ctl.SettleWay(set, w)
				r.busy = false
			}
		}
		check(step, set)
	}
	t.Logf("%d touches in a set's cycle of its previous touch, %d compactions, %d swap targets",
		sameCycle, compactions, swaps)
	if sameCycle < 1000 || compactions < 20 || swaps < 1000 {
		t.Fatalf("%d same-cycle touches, %d compactions, %d swap targets; the walk no longer covers them",
			sameCycle, compactions, swaps)
	}
}

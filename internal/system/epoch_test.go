package system

import (
	"context"
	"reflect"
	"testing"

	"github.com/hydrogen-sim/hydrogen/internal/memory/hybrid"
	"github.com/hydrogen-sim/hydrogen/internal/obs"
	"github.com/hydrogen-sim/hydrogen/internal/workloads"
)

// recordingPolicy is a policy that listens to epochs, sums the
// controller counters each one delivers, and checks the running sum
// against the controller's own cumulative counters.
type recordingPolicy struct {
	hybrid.Policy
	ctl      *hybrid.Controller
	epochs   int
	sum      hybrid.Stats
	mismatch int // first epoch whose running sum was off, -1 if none
}

func (p *recordingPolicy) OnEpoch(m hybrid.EpochMetrics) {
	addStats(&p.sum, m.Stats)
	if p.sum != p.ctl.Stats() && p.mismatch < 0 {
		p.mismatch = p.epochs
	}
	p.epochs++
}

// addStats adds every counter of d into sum.
func addStats(sum *hybrid.Stats, d hybrid.Stats) {
	sv, dv := reflect.ValueOf(sum).Elem(), reflect.ValueOf(d)
	for i := 0; i < sv.NumField(); i++ {
		f, g := sv.Field(i), dv.Field(i)
		switch f.Kind() {
		case reflect.Uint64:
			f.SetUint(f.Uint() + g.Uint())
		case reflect.Array:
			for k := 0; k < f.Len(); k++ {
				f.Index(k).SetUint(f.Index(k).Uint() + g.Index(k).Uint())
			}
		default:
			panic("addStats: unhandled field " + sv.Type().Field(i).Name)
		}
	}
}

// TestEpochListenerGetsDeltas: EpochMetrics.Stats is the delta over the
// epoch, so at every epoch the Stats a listener has received sum to the
// controller's counters at that moment, and over the run to its
// counters at the last epoch boundary.
func TestEpochListenerGetsDeltas(t *testing.T) {
	cfg, inner := footprintConfig(t, "C1", DesignBaseline, false)
	cfg.EpochLen = 100_000
	rec := &recordingPolicy{mismatch: -1}
	sys, err := New(cfg, func(env PolicyEnv) (hybrid.Policy, error) {
		pol, err := inner(env)
		rec.Policy = pol
		return rec, err
	})
	if err != nil {
		t.Fatal(err)
	}
	rec.ctl = sys.Controller()
	res := sys.Run()
	if rec.epochs == 0 || rec.epochs != len(res.Epochs) {
		t.Fatalf("listener saw %d epochs, the run sampled %d", rec.epochs, len(res.Epochs))
	}
	if rec.mismatch >= 0 {
		t.Fatalf("at epoch %d the delivered Stats no longer sum to the controller's counters", rec.mismatch)
	}
	if rec.sum.Demand[0] == 0 || rec.sum.Demand[1] == 0 {
		t.Fatalf("no demand delivered: %+v", rec.sum)
	}
}

// TestObserverCountsCancelingEpoch: the observer runs before the ctx
// check, so the epoch whose observer cancels the run is observed and
// is the run's last.
func TestObserverCountsCancelingEpoch(t *testing.T) {
	combo, err := workloads.ComboByID("C1")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var points []obs.EpochPoint
	res, err := RunDesignObserved(ctx, tiny(), aliases[DesignHydrogen], combo, func(p obs.EpochPoint) {
		points = append(points, p)
		if len(points) == 3 {
			cancel()
		}
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(points) != 3 || len(res.Epochs) != 3 {
		t.Fatalf("%d points and %d epoch samples, want 3 and 3", len(points), len(res.Epochs))
	}
	for i, p := range points {
		if p.Epoch != i || p.EndCycle != res.Epochs[i].EndCycle || p.WeightedIPC != res.Epochs[i].WeightedIPC {
			t.Fatalf("point %d = %v, want epoch %d of sample %+v", i, p, i, res.Epochs[i])
		}
	}
}

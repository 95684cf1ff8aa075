package system

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/hydrogen-sim/hydrogen/internal/obs"
	"github.com/hydrogen-sim/hydrogen/internal/workloads"
)

// TestRunDesignContextDeadline: a context deadline stops an oversized
// RunDesignObserved run at an epoch boundary — well short of the full
// cycle budget — and the error is context.DeadlineExceeded, which is
// what the serving layer's per-job timeout maps to deadline_exceeded.
func TestRunDesignContextDeadline(t *testing.T) {
	cfg := tiny()
	cfg.Cycles = 4_000_000_000 // minutes of simulation against a 50ms budget
	combo, err := workloads.ComboByID("C1")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()

	epochs := 0
	start := time.Now()
	_, err = RunDesignObserved(ctx, cfg, aliases[DesignBaseline], combo, func(obs.EpochPoint) { epochs++ })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if total := int(cfg.Cycles / cfg.EpochLen); epochs >= total {
		t.Fatalf("ran all %d epochs despite the deadline", total)
	}
	// Cancellation lands at the next epoch boundary, so generous slack;
	// the point is that it did not run for the full cycle budget.
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("deadline ignored: ran %s", elapsed)
	}
}

// TestRunDesignContextCancel: an explicit cancel surfaces as
// context.Canceled.
func TestRunDesignContextCancel(t *testing.T) {
	cfg := tiny()
	cfg.Cycles = 4_000_000_000
	combo, err := workloads.ComboByID("C1")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	_, err = RunDesignObserved(ctx, cfg, aliases[DesignBaseline], combo, func(obs.EpochPoint) { cancel() })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

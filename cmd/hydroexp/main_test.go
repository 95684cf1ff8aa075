package main

import (
	"bytes"
	"strings"
	"testing"

	"github.com/hydrogen-sim/hydrogen/internal/system"
)

// TestCountersPrintsEveryDesign runs the counters view end to end: one
// short fig5a sweep over C1, rendered as one row per design.
func TestCountersPrintsEveryDesign(t *testing.T) {
	if testing.Short() {
		t.Skip("runs seven short simulations")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-q", "-cycles", "300000", "-combos", "C1", "counters"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	designs := map[string]bool{}
	for _, line := range strings.Split(stdout.String(), "\n") {
		if f := strings.Fields(line); len(f) > 2 && f[0] == "C1" {
			designs[f[1]] = true
		}
	}
	if len(designs) != 7 {
		t.Fatalf("got rows for %d designs, want 7:\n%s", len(designs), stdout.String())
	}
	for _, d := range system.Designs() {
		if !designs[d] {
			t.Errorf("no row for design %s", d)
		}
	}
}

// TestUnknownComboFails: a -combos typo is an error naming the ID, not
// a silently shorter (or empty) sweep.
func TestUnknownComboFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-q", "-combos", "C99", "fig5a"}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("exit 0 for an unknown combo; stdout:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "C99") {
		t.Fatalf("error does not name the combo: %q", stderr.String())
	}
}

func TestUnknownExperimentIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"fig99"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "fig99") {
		t.Fatalf("error does not name the experiment: %q", stderr.String())
	}
}

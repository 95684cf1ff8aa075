package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/hydrogen-sim/hydrogen/client"
	"github.com/hydrogen-sim/hydrogen/experiments"
	"github.com/hydrogen-sim/hydrogen/internal/serve"
	"github.com/hydrogen-sim/hydrogen/internal/system"
	"github.com/hydrogen-sim/hydrogen/internal/workloads"
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

// TestRunMemoLine: with progress on, the last stderr line counts the
// runs made and the requests the run memo served. fig6 asks for the
// fig5a runs again; each of the seven designs' speedups asks for its
// run and the combo's Baseline.
func TestRunMemoLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-cycles", "10000", "-combos", "C1", "fig5a", "fig6"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stderr.String()), "\n")
	if last, want := lines[len(lines)-1], "hydroexp: 7 simulations, 21 served from the run memo"; last != want {
		t.Fatalf("last stderr line %q, want %q", last, want)
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

// TestServerParity: the ablation and sensitivity figures print the same
// tables run locally and through -server, so every one of their runs
// (swap variants, ideal reconfiguration, the Fig. 8 fixed points, phase
// and epoch lengths, IPC weights) reaches the daemon as its own spec;
// and a second -server invocation is all cache hits.
func TestServerParity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each figure's simulations locally and remotely")
	}
	figs := []string{"-q", "-cycles", "10000", "-combos", "C1", "fig7a", "fig7b", "fig8", "fig9a", "fig9b", "fig10a"}
	exp := func(args ...string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if code := run(append(args, figs...), &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
		}
		return stdout.String()
	}
	srv, err := serve.New(serve.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })

	local := exp()
	if remote := exp("-server", ts.URL); remote != local {
		t.Fatalf("tables differ.\nlocal:\n%s\nremote:\n%s", local, remote)
	}
	// Fig. 8's fixed points alone are 63 distinct specs.
	started := srv.SimulationsStarted()
	if grid := len(experiments.StaticGrid(experiments.Full)); started < int64(grid) {
		t.Fatalf("%d simulations reached the daemon, fewer than Fig. 8's %d points", started, grid)
	}
	if again := exp("-server", ts.URL); again != local {
		t.Fatal("second -server run printed different tables")
	}
	if n := srv.SimulationsStarted(); n != started {
		t.Fatalf("second -server run started %d simulations, want 0", n-started)
	}

	// The daemon's job ID of a run is system.ContentAddress, the key the
	// run memo uses: Fig. 10(a)'s alone runs, one of its weight
	// settings, and a Fig. 8 fixed point are each a done job there.
	cfg := system.Quick()
	cfg.Cycles, cfg.Seed = 10000, 1
	c5, c6 := combo(t, "C5"), combo(t, "C6")
	cpuOnly := c6
	cpuOnly.GPU = ""
	gpuAlone := cfg
	gpuAlone.Cores = 0
	weighted := cfg
	weighted.WeightCPU, weighted.WeightGPU = 32, 1
	baseline, _ := system.ParseDesign(system.DesignBaseline, nil)
	hydrogen, _ := system.ParseDesign(system.DesignHydrogen, nil)
	cl := client.New(ts.URL)
	for name, r := range map[string]struct {
		cfg    system.Config
		design system.DesignSpec
		combo  workloads.Combo
	}{
		"cpu alone":        {cfg, baseline, cpuOnly},
		"gpu alone":        {gpuAlone, baseline, c6},
		"weights 32:1":     {weighted, hydrogen, c6},
		"fig8 fixed point": {cfg, experiments.StaticGrid(experiments.Full)[0].Spec(), c5},
	} {
		id := system.ContentAddress(system.ModelVersion, r.cfg, r.design, r.combo)
		st, err := cl.Job(context.Background(), id)
		if err != nil || st.State != serve.StateDone {
			t.Errorf("%s: no done job at its content address %s: %v %v", name, id[:12], st, err)
		}
	}
}

func combo(t *testing.T, id string) workloads.Combo {
	t.Helper()
	c, err := workloads.ComboByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hydrogen-sim/hydrogen/internal/system"
	"github.com/hydrogen-sim/hydrogen/internal/workloads"
)

// tinyOptions returns options that keep experiment tests fast: one
// combo, a small fast tier, short runs.
func tinyOptions() Options {
	base := system.Quick()
	base.Hybrid.FastCapacityBytes = 4 << 20
	base.Hybrid.RemapCacheBytes = 16 << 10
	base.LLC.SizeBytes = 256 << 10
	base.EpochLen = 100_000
	base.Cycles = 600_000
	return Options{Base: base, Combos: []string{"C1"}}
}

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Fatalf("geomean(2,8) = %f", g)
	}
	if g := Geomean(nil); g != 0 {
		t.Fatalf("geomean(nil) = %f", g)
	}
	if g := Geomean([]float64{1, 0, -5}); math.Abs(g-1) > 1e-9 {
		t.Fatalf("geomean ignoring non-positives = %f", g)
	}
}

func TestWeightedSpeedup(t *testing.T) {
	var base, r system.Results
	base.CPUIPC, base.GPUIPC = 2, 10
	r.CPUIPC, r.GPUIPC = 4, 5 // CPU 2x, GPU 0.5x
	s := WeightedSpeedup(r, base, 12, 1)
	want := (12*2.0 + 0.5) / 13
	if math.Abs(s-want) > 1e-9 {
		t.Fatalf("weighted speedup %f, want %f", s, want)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "demo", Columns: []string{"a", "b"}}
	tab.Add("x", "1")
	tab.AddF("y", 2.5)
	var text, csv bytes.Buffer
	tab.WriteText(&text)
	tab.WriteCSV(&csv)
	if !strings.Contains(text.String(), "demo") || !strings.Contains(text.String(), "2.500") {
		t.Fatalf("text table:\n%s", text.String())
	}
	if !strings.HasPrefix(csv.String(), "a,b\n") {
		t.Fatalf("csv table:\n%s", csv.String())
	}
}

func TestTables1And2(t *testing.T) {
	t1 := Table1(system.Quick())
	if len(t1.Rows) < 8 {
		t.Fatalf("Table I has %d rows", len(t1.Rows))
	}
	t2 := Table2()
	if len(t2.Rows) != 12 {
		t.Fatalf("Table II has %d rows, want 12", len(t2.Rows))
	}
}

func TestFig2aSmoke(t *testing.T) {
	rows, err := Fig2a(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Combo != "C1" {
		t.Fatalf("rows %+v", rows)
	}
	if rows[0].CPUSlowdown <= 0 || rows[0].GPUSlowdown <= 0 {
		t.Fatalf("non-positive slowdowns %+v", rows[0])
	}
}

func TestFig2SensitivitySmoke(t *testing.T) {
	rows, err := Fig2Sensitivity(tinyOptions(), "C1", KnobFastBW, []float64{1, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	if math.Abs(rows[0].CPUPerf-1) > 1e-9 || math.Abs(rows[0].GPUPerf-1) > 1e-9 {
		t.Fatalf("scale-1 point not normalized to 1: %+v", rows[0])
	}
}

func TestFig5Smoke(t *testing.T) {
	r, err := Fig5(tinyOptions(), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Combos) != 1 || len(r.Designs) != 7 {
		t.Fatalf("combos %v designs %v", r.Combos, r.Designs)
	}
	if s := r.Speedup["C1"][system.DesignBaseline]; math.Abs(s-1) > 1e-9 {
		t.Fatalf("baseline speedup vs itself = %f", s)
	}
	for _, d := range r.Designs {
		if r.Speedup["C1"][d] <= 0 {
			t.Fatalf("design %s speedup %f", d, r.Speedup["C1"][d])
		}
	}
	if ratio, best := r.HydrogenVsBest(); ratio <= 0 || best == "" {
		t.Fatalf("HydrogenVsBest = %f, %q", ratio, best)
	}
	// Fig. 6 derives from the same runs.
	energy := r.Fig6Table()
	if len(energy.Rows) != 2 { // 1 combo + geomean
		t.Fatalf("fig6 rows %d", len(energy.Rows))
	}
	// HAShCache normalized to itself must be 1.
	if energy.Rows[0][1] != "1.000" {
		t.Fatalf("HAShCache self-normalization = %s", energy.Rows[0][1])
	}
	// So does the counters view: one row per design.
	counters := r.CountersTable()
	if len(counters.Rows) != 7 {
		t.Fatalf("counters rows %d, want 7", len(counters.Rows))
	}
	col := map[string]int{}
	for i, c := range counters.Columns {
		col[c] = i
	}
	for _, row := range counters.Rows {
		if len(row) != len(counters.Columns) {
			t.Fatalf("row %v has %d cells for %d columns", row[:2], len(row), len(counters.Columns))
		}
		h := r.Raw[row[0]][row[1]].Hybrid
		cpu, _ := strconv.ParseUint(row[col["migr_cpu"]], 10, 64)
		gpu, _ := strconv.ParseUint(row[col["migr_gpu"]], 10, 64)
		if cpu != h.Migrations[0] || gpu != h.Migrations[1] {
			t.Fatalf("%s %s migrations cells %d+%d, want %d+%d",
				row[0], row[1], cpu, gpu, h.Migrations[0], h.Migrations[1])
		}
	}
}

// TestUnknownComboIsAnError: a typo in Options.Combos fails the
// experiment up front instead of silently running fewer combos.
func TestUnknownComboIsAnError(t *testing.T) {
	o := tinyOptions()
	o.Combos = []string{"C1", "c5"}
	r, err := Fig5(o, false)
	if err == nil {
		t.Fatalf("Fig5 accepted an unknown combo; ran %v", r.Combos)
	}
	if !strings.Contains(err.Error(), "c5") {
		t.Fatalf("error %q does not name the unknown combo", err)
	}
}

func TestStaticGrid(t *testing.T) {
	full := StaticGrid(Full)
	co := StaticGrid(Coarse)
	if len(co) >= len(full) {
		t.Fatalf("coarse grid (%d) not smaller than full (%d)", len(co), len(full))
	}
	for _, p := range full {
		if p.CPUGroups > p.CPUWays {
			t.Fatalf("infeasible point %+v (bw > cap)", p)
		}
		if p.CPUWays < 1 || p.CPUWays > 3 {
			t.Fatalf("cap out of range: %+v", p)
		}
		cfg := system.Quick()
		if _, err := p.Spec().Apply(&cfg); err != nil {
			t.Fatalf("%s fails spec validation: %v", p, err)
		}
	}
	// 9 (cap,bw) combos x 7 tok levels.
	if len(full) != 63 {
		t.Fatalf("full grid has %d points, want 63", len(full))
	}
}

// TestFig7bPointErrorFails: a grid point of the exhaustive oracle that
// fails (a transient daemon error, say) fails Fig. 7(b) instead of
// silently lowering the reported optimum.
func TestFig7bPointErrorFails(t *testing.T) {
	o := tinyOptions()
	boom := errors.New("daemon unavailable")
	o.Runner = func(cfg system.Config, d system.DesignSpec, c workloads.Combo) (system.Results, error) {
		if d.Hydrogen.FixedPoint != nil && d.Hydrogen.FixedPoint[2] == 6 {
			return system.Results{}, boom
		}
		return system.Results{CPUIPC: 1, GPUIPC: 1}, nil
	}
	if _, err := Fig7b(o); !errors.Is(err, boom) {
		t.Fatalf("Fig7b err = %v, want the failing point's error", err)
	}
}

func TestFig8Smoke(t *testing.T) {
	o := tinyOptions()
	r, err := Fig8(o, "C1", Coarse)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 {
		t.Fatal("no rows")
	}
	// Rows must be sorted descending.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].Speedup > r.Rows[i-1].Speedup {
			t.Fatal("rows not sorted by speedup")
		}
	}
	if r.Best().Speedup < r.Median().Speedup {
		t.Fatal("best below median")
	}
	if v := r.HydrogenVsOptimal(); v <= 0 {
		t.Fatalf("HydrogenVsOptimal %f", v)
	}
}

func TestFig10aSmoke(t *testing.T) {
	rows, err := Fig10a(tinyOptions(), "C1", [][2]float64{{1, 1}, {32, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.CPUSlowdown <= 0 || r.GPUSlowdown <= 0 {
			t.Fatalf("bad row %+v", r)
		}
	}
}

func TestFig11Smoke(t *testing.T) {
	rows, err := Fig11(tinyOptions(), []Fig11Config{{1, 64}, {4, 256}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Hydrogen <= 0 || r.HAShCache <= 0 || r.Profess <= 0 {
			t.Fatalf("bad row %+v", r)
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	o := tinyOptions()
	serial, err := Fig2a(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Parallel = 4
	par, err := Fig2a(o)
	if err != nil {
		t.Fatal(err)
	}
	if serial[0] != par[0] {
		t.Fatalf("parallel execution changed results: %+v vs %+v", serial[0], par[0])
	}
}

// TestOneBaselinePerConfigCombo: every speedup divides by a Baseline
// run on the same (config, combo), and an experiment simulates each
// such Baseline once, however many designs or factors divide by it.
func TestOneBaselinePerConfigCombo(t *testing.T) {
	o := tinyOptions()
	o.Base.Cycles = 100_000
	o.Base.EpochLen = 50_000
	o.Combos = []string{"C1", "C5"}
	var mu sync.Mutex
	var counts map[string]int
	o.Runner = func(cfg system.Config, d system.DesignSpec, c workloads.Combo) (system.Results, error) {
		if d.String() == system.DesignBaseline {
			key, err := json.Marshal(cfg)
			if err != nil {
				return system.Results{}, err
			}
			mu.Lock()
			counts[string(key)+"/"+c.ID]++
			mu.Unlock()
		}
		return system.RunDesignObserved(context.Background(), cfg, d, c, nil)
	}
	for _, tc := range []struct {
		name string
		want int // distinct (config, combo) Baselines
		run  func() error
	}{
		{"Fig7a", 2, func() error { _, err := Fig7a(o); return err }},
		{"Fig8", 1, func() error { _, err := Fig8(o, "C5", Coarse); return err }},
		{"Fig9Phase", 2, func() error { _, err := Fig9Phase(o, nil); return err }},
	} {
		counts = map[string]int{}
		if err := tc.run(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(counts) != tc.want {
			t.Errorf("%s: Baselines on %d (config, combo) pairs, want %d", tc.name, len(counts), tc.want)
		}
		for key, n := range counts {
			if n != 1 {
				t.Errorf("%s: Baseline ran %d times on %s", tc.name, n, key[strings.LastIndex(key, "/")+1:])
			}
		}
	}
}

// TestAllRunsOnce drives the experiments of `hydroexp all`, with its
// combo subsets, through one shared memo: every content address reaches
// the Runner exactly once, 394 runs where calling each figure on its
// own makes 461.
func TestAllRunsOnce(t *testing.T) {
	base := system.Quick()
	base.Seed = 1
	opts := Options{Base: base}.ShareRuns()
	var mu sync.Mutex
	calls := map[string]int{}
	opts.Runner = func(cfg system.Config, d system.DesignSpec, c workloads.Combo) (system.Results, error) {
		mu.Lock()
		calls[system.ContentAddress(system.ModelVersion, cfg, d, c)]++
		mu.Unlock()
		return system.Results{CPUIPC: 1, GPUIPC: 1}, nil
	}
	subset := func(ids ...string) Options {
		o := opts
		o.Combos = ids
		return o
	}
	for _, run := range []func() error{
		func() error { _, err := Fig2a(opts); return err },
		func() error { _, err := Fig2Sensitivity(opts, "C1", KnobFastBW, nil); return err },
		func() error { _, err := Fig2Sensitivity(opts, "C1", KnobFastCapacity, nil); return err },
		func() error { _, err := Fig2Sensitivity(opts, "C1", KnobSlowBW, nil); return err },
		func() error { _, err := Fig5(opts, false); return err },
		func() error { _, err := Fig5(opts, true); return err },
		func() error { _, err := Fig5(opts, false); return err }, // fig6
		func() error { _, err := Fig7a(subset("C1", "C5", "C8", "C11")); return err },
		func() error { _, err := Fig7b(subset("C1", "C5")); return err },
		func() error { _, err := Fig8(opts, "C5", Full); return err },
		func() error { _, err := Fig9Phase(subset("C1", "C5"), nil); return err },
		func() error { _, err := Fig9Epoch(subset("C1", "C5"), nil); return err },
		func() error { _, err := Fig10a(opts, "C6", nil); return err },
		func() error { _, err := Fig10b(subset("C1", "C5"), nil); return err },
		func() error { _, err := Fig11(subset("C1", "C5"), nil); return err },
	} {
		if err := run(); err != nil {
			t.Fatal(err)
		}
	}
	for key, n := range calls {
		if n != 1 {
			t.Errorf("address %s reached the Runner %d times", key[:12], n)
		}
	}
	if len(calls) != 394 {
		t.Errorf("%d distinct runs, want 394", len(calls))
	}
	if made, _ := opts.RunCounts(); made != len(calls) {
		t.Errorf("RunCounts made %d, Runner saw %d addresses", made, len(calls))
	}
}

// TestConcurrentRequestsShareOneRun: with Parallel 2, two requests for
// one address in flight together make one Runner call, both get its
// Results, and neither can change what the memo serves.
func TestConcurrentRequestsShareOneRun(t *testing.T) {
	o := tinyOptions()
	o.Parallel = 2
	o.memoize()
	want := system.Results{CPUIPC: 1.5, GPUIPC: 0.5, Epochs: []system.EpochSample{{EndCycle: 7}}}
	var calls atomic.Int32
	entered, release := make(chan struct{}), make(chan struct{})
	o.Runner = func(system.Config, system.DesignSpec, workloads.Combo) (system.Results, error) {
		if calls.Add(1) == 1 {
			close(entered)
		}
		<-release
		return want, nil
	}
	c1, err := workloads.ComboByID("C1")
	if err != nil {
		t.Fatal(err)
	}
	req := func(int) (system.Results, error) { return o.run(o.Base, named(system.DesignBaseline), c1) }
	var got []system.Results
	done := make(chan error)
	go func() {
		var err error
		got, err = mapOrdered(o.parallelism(), 2, req)
		done <- err
	}()
	<-entered
	// Release the run once both requests have reached the memo.
	for made, reused := o.RunCounts(); made+reused < 2; made, reused = o.RunCounts() {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("%d Runner calls for one address, want 1", n)
	}
	for i, r := range got {
		if !reflect.DeepEqual(r, want) {
			t.Fatalf("request %d got %+v, want %+v", i, r, want)
		}
	}
	got[0].Epochs[0].EndCycle = 0
	if again, _ := req(0); !reflect.DeepEqual(again, want) || got[1].Epochs[0].EndCycle != 7 {
		t.Fatal("a caller's change to its Epochs reached the memo")
	}
}

// TestFailedRunIsNotMemoized: a run that fails reaches the Runner again
// when it is asked for again; once it succeeds it is made no more.
func TestFailedRunIsNotMemoized(t *testing.T) {
	o := tinyOptions()
	o.memoize()
	boom := errors.New("daemon unavailable")
	calls := 0
	o.Runner = func(system.Config, system.DesignSpec, workloads.Combo) (system.Results, error) {
		calls++
		if calls <= 2 {
			return system.Results{}, boom
		}
		return system.Results{CPUIPC: 1}, nil
	}
	c1, err := workloads.ComboByID("C1")
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []struct {
		err   error
		calls int
	}{{boom, 1}, {boom, 2}, {nil, 3}, {nil, 3}} {
		_, err := o.run(o.Base, named(system.DesignHydrogen), c1)
		if !errors.Is(err, want.err) || calls != want.calls {
			t.Fatalf("request %d: err %v after %d Runner calls, want %v after %d", i, err, calls, want.err, want.calls)
		}
	}
}

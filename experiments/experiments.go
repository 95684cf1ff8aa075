// Package experiments regenerates every table and figure of the paper's
// evaluation (Tables I–II, Figures 2 and 5–11). Each experiment returns
// structured rows and can render itself as an aligned text table or CSV,
// mirroring the artifact workflow (T2 simulate → T3 extract perf.csv).
//
// All experiments accept a base system configuration so the quick
// (scaled) and paper-sized setups share one code path; see DESIGN.md
// section 4 for the scaling rules.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/hydrogen-sim/hydrogen/internal/obs"
	"github.com/hydrogen-sim/hydrogen/internal/system"
	"github.com/hydrogen-sim/hydrogen/internal/workloads"
)

// Options controls experiment execution.
type Options struct {
	Base     system.Config // base system config (system.Quick() or Paper())
	Combos   []string      // workload combos to run; nil = all C1..C12
	Progress io.Writer     // optional live progress sink
	Parallel int           // concurrent simulations; <=0 = all CPUs, 1 = serial

	// Runner overrides how simulations execute. nil runs them
	// in-process; `hydroexp -server` installs a hydroserved client here
	// so sweep re-runs hit the daemon's content-addressed result cache.
	// Every distinct run an experiment makes goes through it once.
	// Runner must be safe for concurrent use.
	Runner func(cfg system.Config, design system.DesignSpec, combo workloads.Combo) (system.Results, error)

	// TelemetryDir, when set, gets one CSV of per-epoch telemetry per
	// distinct locally executed run, named
	// telemetry_<seq>_<design>_<combo>.csv — the raw material of the
	// knob-trajectory views (Figs. 8-11). Runs routed through Runner (a
	// remote daemon) are not captured; stream those via
	// GET /v1/jobs/{id}/telemetry instead.
	TelemetryDir string

	// memo holds the runs made so far; every copy of o shares it. See
	// ShareRuns.
	memo *runMemo
}

// ShareRuns returns o with a fresh run memo that every copy of the
// result shares, so a run one experiment made is not made again by the
// next. Options without one get a memo of their own per experiment
// call.
func (o Options) ShareRuns() Options {
	o.memo = new(runMemo)
	return o
}

// RunCounts reports, for options from ShareRuns, how many runs were
// made (simulated, or sent to Runner) and how many requests were served
// one of those runs from the memo instead.
func (o Options) RunCounts() (made, reused int) {
	if o.memo == nil {
		return 0, 0
	}
	o.memo.mu.Lock()
	defer o.memo.mu.Unlock()
	return o.memo.made, o.memo.reused
}

// memoize gives o a memo of its own for one experiment call unless it
// shares one.
func (o *Options) memoize() {
	if o.memo == nil {
		o.memo = new(runMemo)
	}
}

// runMemo maps a run's system.ContentAddress to the run. It is
// singleflight: concurrent requests for one address share one run. A
// failed run is forgotten, so asking for it again runs it again.
type runMemo struct {
	mu           sync.Mutex
	runs         map[string]*memoRun
	made, reused int
}

type memoRun struct {
	done chan struct{}
	res  system.Results
	err  error
}

var errRunPanicked = errors.New("experiments: run panicked")

// do returns the run at key, calling run to make it unless it is made
// or in flight.
func (m *runMemo) do(key string, run func() (system.Results, error)) (system.Results, error) {
	m.mu.Lock()
	r, ok := m.runs[key]
	if ok {
		m.reused++
		m.mu.Unlock()
		<-r.done
		return r.result()
	}
	if m.runs == nil {
		m.runs = map[string]*memoRun{}
	}
	r = &memoRun{done: make(chan struct{}), err: errRunPanicked}
	m.runs[key] = r
	m.made++
	m.mu.Unlock()

	defer func() {
		if r.err != nil {
			m.mu.Lock()
			delete(m.runs, key)
			m.mu.Unlock()
		}
		close(r.done)
	}()
	r.res, r.err = run()
	return r.result()
}

// result hands out the run with its own Epochs slice, so no caller can
// change what the memo serves the next.
func (r *memoRun) result() (system.Results, error) {
	res := r.res
	res.Epochs = slices.Clone(res.Epochs)
	return res, r.err
}

// telemetrySeq numbers telemetry artifacts across concurrent runs.
var telemetrySeq atomic.Int64

// named is the spec of one of the system.Designs() aliases.
func named(design string) system.DesignSpec {
	d, _ := system.ParseDesign(design, nil)
	return d
}

// run returns the run of design on (cfg, combo), made once per content
// address through the configured Runner (or locally when none is set).
func (o *Options) run(cfg system.Config, design system.DesignSpec, combo workloads.Combo) (system.Results, error) {
	key := system.ContentAddress(system.ModelVersion, cfg, design, combo)
	return o.memo.do(key, func() (system.Results, error) {
		if o.Runner != nil {
			return o.Runner(cfg, design, combo)
		}
		return o.simulate(cfg, design, combo)
	})
}

// speedup returns design's weighted speedup on (cfg, combo) over the
// Baseline on the same (cfg, combo), at cfg's IPC weights (12:1 when
// unset, as the simulator runs it), and the design's run.
func (o *Options) speedup(cfg system.Config, design system.DesignSpec, combo workloads.Combo) (float64, system.Results, error) {
	r, err := o.run(cfg, design, combo)
	if err != nil {
		return 0, r, err
	}
	base, err := o.run(cfg, named(system.DesignBaseline), combo)
	if err != nil {
		return 0, r, err
	}
	w := system.Canonical(cfg)
	return WeightedSpeedup(r, base, w.WeightCPU, w.WeightGPU), r, nil
}

// geomeanSpeedups returns, for each of n points, the geomean over
// combos of its speedup; point(i) gives the i-th point's config, design
// and progress label. All n x combos runs go in one parallel list.
func (o *Options) geomeanSpeedups(n int, combos []workloads.Combo, point func(i int) (system.Config, system.DesignSpec, string)) ([]float64, error) {
	nc := len(combos)
	speedups, err := mapOrdered(o.parallelism(), n*nc, func(k int) (float64, error) {
		cfg, design, label := point(k / nc)
		s, _, err := o.speedup(cfg, design, combos[k%nc])
		o.logf("%s %s: %.3f", label, combos[k%nc].ID, s)
		return s, err
	})
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = Geomean(speedups[i*nc : (i+1)*nc])
	}
	return out, nil
}

// simulate runs one simulation in-process, writing its telemetry CSV
// when TelemetryDir is set.
func (o *Options) simulate(cfg system.Config, design system.DesignSpec, combo workloads.Combo) (system.Results, error) {
	var observe func(obs.EpochPoint)
	var points []obs.EpochPoint
	if o.TelemetryDir != "" {
		observe = func(p obs.EpochPoint) { points = append(points, p) }
	}
	res, err := system.RunDesignObserved(context.Background(), cfg, design, combo, observe)
	if err != nil || o.TelemetryDir == "" {
		return res, err
	}
	name := fmt.Sprintf("telemetry_%03d_%s_%s.csv", telemetrySeq.Add(1), sanitize(design.String()), sanitize(combo.ID))
	if werr := writeTelemetryCSV(filepath.Join(o.TelemetryDir, name), points); werr != nil {
		o.logf("telemetry: %v", werr)
	}
	return res, nil
}

// sanitize makes a design or combo ID filename-safe.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			return r
		}
		return '_'
	}, s)
}

// writeTelemetryCSV dumps one run's telemetry artifact.
func writeTelemetryCSV(path string, points []obs.EpochPoint) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteCSV(f, points); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// combos resolves Options.Combos; an unknown ID is an error, so a typo
// fails the experiment before any simulation starts.
func (o *Options) combos() ([]workloads.Combo, error) {
	if len(o.Combos) == 0 {
		return workloads.Combos, nil
	}
	out := make([]workloads.Combo, len(o.Combos))
	for i, id := range o.Combos {
		c, err := workloads.ComboByID(id)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// progressMu serializes progress output: experiment workers log from
// concurrent goroutines.
var progressMu sync.Mutex

func (o *Options) logf(format string, args ...any) {
	if o.Progress != nil {
		progressMu.Lock()
		defer progressMu.Unlock()
		fmt.Fprintf(o.Progress, format+"\n", args...)
	}
}

// parallelism resolves the Options.Parallel setting: <=0 means one
// worker per available CPU, 1 means serial, otherwise the given count.
func (o *Options) parallelism() int {
	if o.Parallel <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Parallel
}

// mapOrdered runs fn for every index 0..n-1, at most par calls at a
// time, and collects the results in index order; the error returned is
// the lowest failing index's, so error reporting is deterministic under
// parallelism. A worker's panic re-panics in the caller once every
// in-flight worker has finished, rather than crash the process from a
// bare goroutine.
func mapOrdered[T any](par, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	sem := make(chan struct{}, max(par, 1))
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicVal any
	for i := range n {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicVal = r })
				}
				<-sem
				wg.Done()
			}()
			out[i], errs[i] = fn(i)
		}()
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// WeightedSpeedup is the paper's end metric (artifact appendix): the
// per-processor speedups over the baseline combined with the IPC
// weights.
func WeightedSpeedup(r, base system.Results, wCPU, wGPU float64) float64 {
	scpu, sgpu := 1.0, 1.0
	if base.CPUIPC > 0 {
		scpu = r.CPUIPC / base.CPUIPC
	}
	if base.GPUIPC > 0 {
		sgpu = r.GPUIPC / base.GPUIPC
	}
	return (wCPU*scpu + wGPU*sgpu) / (wCPU + wGPU)
}

// Geomean returns the geometric mean of xs (ignoring non-positives).
func Geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Table is a generic result table that renders as text or CSV.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Add appends a row of stringified cells.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddF appends a row with a label and formatted float cells.
func (t *Table) AddF(label string, vals ...float64) {
	row := []string{label}
	for _, v := range vals {
		row = append(row, fmt.Sprintf("%.3f", v))
	}
	t.Rows = append(t.Rows, row)
}

// WriteText renders an aligned text table.
func (t *Table) WriteText(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	for i, c := range t.Columns {
		fmt.Fprintf(w, "%-*s  ", widths[i], c)
	}
	fmt.Fprintln(w)
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) {
				fmt.Fprintf(w, "%-*s  ", widths[i], cell)
			}
		}
		fmt.Fprintln(w)
	}
}

// WriteCSV renders the table as CSV (matching the artifact's perf.csv
// style output).
func (t *Table) WriteCSV(w io.Writer) {
	fmt.Fprintln(w, strings.Join(t.Columns, ","))
	for _, row := range t.Rows {
		fmt.Fprintln(w, strings.Join(row, ","))
	}
}

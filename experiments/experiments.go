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
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
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
	// Every simulation an experiment makes goes through it. Runner must
	// be safe for concurrent use.
	Runner func(cfg system.Config, design system.DesignSpec, combo workloads.Combo) (system.Results, error)

	// TelemetryDir, when set, makes every locally executed simulation
	// dump its per-epoch telemetry to
	// telemetry_<seq>_<design>_<combo>.csv in that directory — the raw
	// material of the knob-trajectory views (Figs. 8-11). Runs routed
	// through Runner (a remote daemon) are not captured; stream those via
	// GET /v1/jobs/{id}/telemetry instead.
	TelemetryDir string
}

// telemetrySeq numbers telemetry artifacts across concurrent runs.
var telemetrySeq atomic.Int64

// named is the spec of one of the system.Designs() aliases.
func named(design string) system.DesignSpec {
	d, _ := system.ParseDesign(design, nil)
	return d
}

// run executes one simulation through the configured Runner (or
// locally when none is set).
func (o *Options) run(cfg system.Config, design system.DesignSpec, combo workloads.Combo) (system.Results, error) {
	if o.Runner != nil {
		return o.Runner(cfg, design, combo)
	}
	var hooks system.Hooks
	var points []obs.EpochPoint
	if o.TelemetryDir != "" {
		hooks.OnTelemetry = func(p obs.EpochPoint) { points = append(points, p) }
	}
	res, err := system.RunDesignObserved(context.Background(), cfg, design, combo, hooks)
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

// runIndexed executes fn(0..n-1), with at most par concurrent calls.
// Worker panics are captured and the first one re-panics in the caller
// after every in-flight worker has finished, instead of crashing the
// process from a bare goroutine (or, worse, leaking semaphore slots and
// deadlocking the remaining jobs).
func runIndexed(par, n int, fn func(int)) {
	if par <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicVal any
	for i := 0; i < n; i++ {
		i := i
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
			fn(i)
		}()
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}

// mapOrdered runs fn for every index 0..n-1 (in parallel up to par) and
// collects the results in index order. Each call owns its result slot,
// so fn needs no locking; the error returned is the one from the lowest
// failing index, making error reporting deterministic under parallelism.
func mapOrdered[T any](par, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	runIndexed(par, n, func(i int) {
		out[i], errs[i] = fn(i)
	})
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

// sortedKeys returns map keys in sorted order for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

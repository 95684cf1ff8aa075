// Command bench is the repository's benchmark: five named workloads
// over the simulator, the serving tier and a three-member cluster,
// each measured from outside by timing calls into public functions.
// BENCHMARK.json at the repository root declares the workloads and
// every metric; README.md in this directory says why each exists.
//
//	go run -C bench . -workload sim-bw [-seed 1] [-seconds 10] [-trace 1]
//	go run -C bench . -all
//	go run -C bench . -check-repeat
//	go run -C bench . -spread 10
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics — every end-to-end metric with
// -trace 0, every per-layer metric with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// processStart is as close to process start as Go code gets; the
// human-readable report prints start-to-first-timed-operation from it.
var processStart = time.Now()

type workload struct {
	name string
	run  func(e *env) error
}

var workloadTable = []workload{
	{"sim-bw", runSimBW},
	{"sim-mig", runSimMig},
	{"serve-hit", runServeHit},
	{"serve-cold", runServeCold},
	{"cluster-proxy", runClusterProxy},
}

// env is what one workload run reads its inputs from and reports into.
type env struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	dir      string // scratch directory inside the checkout, removed at exit

	rec    *recorder // nil while measuring untraced
	tally  tally
	e2e    map[string]float64
	layer  map[string]float64
	params map[string]any // workload parameters, stamped on the output
	notes  []string       // sample counts, percentiles used, fingerprints
}

func (e *env) note(format string, args ...any) {
	e.notes = append(e.notes, fmt.Sprintf(format, args...))
}

// measureFor is how long one measured phase lasts: all of -seconds
// untraced, half of it when the run also has a traced phase, so both
// kinds of run take about the same wall time.
func (e *env) measureFor(share float64) time.Duration {
	s := e.seconds * share
	if e.traced {
		s /= 2
	}
	return time.Duration(s * float64(time.Second))
}

// setupMedian runs build (a full set-up, returning what to release)
// n times, keeps the last instance and reports the median duration as
// setup_s, so one slow boot does not set the figure. The heap is
// collected before each one (untimed): at GC percent 800 a set-up
// would otherwise run on freshly mapped pages or on reused ones
// depending on where the previous one left the collector, and page
// faults are the part of a build most exposed to a busy host.
func setupMedian[T any](e *env, n int, build func() (T, error), release func(T)) (T, error) {
	var last T
	var times []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return last, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < n-1 {
			release(v)
			continue
		}
		last = v
	}
	e.e2e["setup_s"] = median(times)
	e.note("setup_s: median of %d set-ups %v; first timed operation %.3f s after process start",
		n, fmtSeconds(times), time.Since(processStart).Seconds())
	return last, nil
}

func fmtSeconds(v []float64) string {
	s := "["
	for i, x := range v {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.3f", x)
	}
	return s + "]"
}

func main() { os.Exit(realMain()) }

func realMain() int {
	// Every shipped binary of this repository runs with this GC
	// setting, so the benchmark does too.
	debug.SetGCPercent(800)

	name := flag.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1: traced run, print the per-layer metrics; 0: end-to-end metrics")
	traceOut := flag.String("trace-out", "", "file for the traced run's spans (default: .bench_build/trace-WORKLOAD.json)")
	all := flag.Bool("all", false, "run every workload, one child process each")
	repeat := flag.Bool("check-repeat", false, "run the full untraced set twice; exit non-zero if an end-to-end metric differs by more than its bound")
	spreadN := flag.Int("spread", 0, "run the full untraced set N times, seeds seed..seed+N-1, and print each metric's median and quartile spread against its bound")
	flag.Parse()

	root, spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *repeat {
		return checkRepeat(spec, *seed, *seconds)
	}
	if *spreadN > 0 {
		return measureSpread(spec, *seed, *seconds, *spreadN)
	}
	if *all {
		_, code := runAll(spec, *seed, *seconds, *trace)
		return code
	}

	var w *workload
	for i := range workloadTable {
		if workloadTable[i].name == *name {
			w = &workloadTable[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q; known:", *name)
		for _, k := range workloadTable {
			fmt.Fprintf(os.Stderr, " %s", k.name)
		}
		fmt.Fprintln(os.Stderr)
		return 2
	}

	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	dir, err := os.MkdirTemp(build, "tmp-"+w.name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	defer os.RemoveAll(dir)

	e := &env{
		workload: w.name, seed: *seed, seconds: *seconds, traced: *trace != 0, dir: dir,
		e2e: map[string]float64{}, layer: map[string]float64{}, params: map[string]any{},
	}
	steal0, total0, stealOK := stealTicks()
	if err := w.run(e); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if e.traced {
		e.layer["bench.peak_rss_mb"] = peakRSSMB()
	}
	e.note("peak RSS (VmHWM): %.1f MB", peakRSSMB())
	if steal1, total1, ok := stealTicks(); ok && stealOK && total1 > total0 {
		pct := 100 * (steal1 - steal0) / (total1 - total0)
		e.note("CPU stolen by the hypervisor during the run: %.1f %% of host ticks (compare times only between runs that saw similar steal)", pct)
		if e.traced {
			e.layer["bench.cpu_steal_pct"] = pct
		}
	}

	stamp := hostStamp(root, e)
	totals := e.rec.totals() // nil for an untraced run
	if e.rec != nil {
		path := *traceOut
		if path == "" {
			path = filepath.Join(build, "trace-"+w.name+".json")
		}
		if err := e.rec.write(path, stamp, totals); err != nil {
			fmt.Fprintln(os.Stderr, "bench: writing trace:", err)
			return 1
		}
		e.note("trace: %d spans recorded, written to %s", len(e.rec.spans), path)
	}
	return report(spec, e, stamp, totals)
}

// report prints the stamp, the notes and every metric by name with its
// unit, then the result object as the last line.
func report(spec *benchSpec, e *env, stamp map[string]any, totals []spanTotals) int {
	stampJSON, _ := json.Marshal(stamp)
	fmt.Printf("stamp: %s\n", stampJSON)
	for _, n := range e.notes {
		fmt.Println(n)
	}
	for _, m := range e.tally.messages {
		fmt.Printf("failure: %s\n", m)
	}

	defs, values := spec.EndToEnd, e.e2e
	if e.traced {
		defs, values = spec.PerLayer, e.layer
		fmt.Println("self time by layer boundary (traced phase and kernels):")
		for _, t := range totals {
			fmt.Printf("  %-28s n=%-8d total %10.2f ms  self %10.2f ms\n", t.Name, t.Count, t.TotalMS, t.SelfMS)
		}
		// The end-to-end numbers of a traced run are shown for context
		// only; claims use the untraced run.
		for _, k := range sortedKeys(e.e2e) {
			fmt.Printf("  (context) %-26s %14.6g\n", k, e.e2e[k])
		}
	}
	declared := map[string]bool{}
	out := map[string]metricValue{}
	for _, d := range defs {
		declared[d.Name] = true
		v, ok := values[d.Name]
		if !ok && !e.traced {
			fmt.Fprintf(os.Stderr, "bench: %s did not produce end-to-end metric %s\n", e.workload, d.Name)
			return 1
		}
		// A per-layer metric a workload does not produce is a layer it
		// does not exercise: zero work, reported as 0.
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Printf("  %-36s %16.6g %s\n", d.Name, v, d.Unit)
	}
	for k := range values {
		if !declared[k] {
			fmt.Fprintf(os.Stderr, "bench: metric %s is not declared in BENCHMARK.json\n", k)
			return 1
		}
	}

	res := result{
		Correct:   e.tally.failed == 0 && e.tally.attempted > 0,
		Attempted: e.tally.attempted,
		Failed:    e.tally.failed,
		Metrics:   out,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object the driver reads from the last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

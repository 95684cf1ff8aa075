package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
)

// runResult is one child run: the driver-facing object plus the
// fingerprint lines of its report.
type runResult struct {
	result
	fingerprints []string
}

// runOne executes one workload in a child process, exactly as the
// driver does, so peak RSS and GC state are that workload's alone. The
// child's report is passed through; its last line is parsed.
func runOne(name string, seed int64, seconds float64, trace int) (runResult, error) {
	var rr runResult
	exe, err := os.Executable()
	if err != nil {
		return rr, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run() // Run waits for the child to exit
	os.Stdout.Write(out.Bytes())
	if runErr != nil {
		return rr, fmt.Errorf("%s: %w", name, runErr)
	}
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if strings.HasPrefix(last, "fingerprint ") || strings.HasPrefix(last, "system.fingerprint:") {
			rr.fingerprints = append(rr.fingerprints, last)
		}
	}
	if err := json.Unmarshal([]byte(last), &rr.result); err != nil {
		return rr, fmt.Errorf("%s: last line is not a result object: %w", name, err)
	}
	return rr, nil
}

// runAll runs every workload of BENCHMARK.json once and returns the
// results by workload name.
func runAll(spec *benchSpec, seed int64, seconds float64, trace int) (map[string]runResult, int) {
	set := map[string]runResult{}
	code := 0
	for _, w := range spec.Workloads {
		fmt.Printf("== %s ==\n", w.Name)
		rr, err := runOne(w.Name, seed, seconds, trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
			continue
		}
		if !rr.Correct {
			code = 1
		}
		set[w.Name] = rr
	}
	return set, code
}

// checkRepeat runs the full untraced set twice and compares: every
// end-to-end metric of the second set must lie within its bound of the
// first, in either direction, and every simulated fingerprint must be
// identical. It is how "two sets of runs of the same code agree" is
// verified.
func checkRepeat(spec *benchSpec, seed int64, seconds float64) int {
	first, code1 := runAll(spec, seed, seconds, 0)
	second, code2 := runAll(spec, seed, seconds, 0)
	code := code1 | code2
	fmt.Printf("\n%-14s %-18s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, w := range spec.Workloads {
		a, okA := first[w.Name]
		b, okB := second[w.Name]
		if !okA || !okB {
			fmt.Printf("%-14s did not complete in both sets\n", w.Name)
			code = 1
			continue
		}
		for _, d := range spec.EndToEnd {
			va, vb := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			diff := (vb - va) / va
			verdict := ""
			if math.Abs(diff) > d.Bound || math.IsNaN(diff) {
				verdict = "  DIFFERS"
				code = 1
			}
			fmt.Printf("%-14s %-18s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n", w.Name, d.Name, va, vb, 100*diff, 100*d.Bound, verdict)
		}
		if strings.Join(a.fingerprints, "\n") != strings.Join(b.fingerprints, "\n") {
			fmt.Printf("%-14s simulated results differ between the sets:\n%v\n%v\n", w.Name, a.fingerprints, b.fingerprints)
			code = 1
		}
	}
	if code == 0 {
		fmt.Println("the two sets agree within every bound; simulated results are bit-identical")
	}
	return code
}

// measureSpread is the steadiness check the bounds rest on: n runs of
// every workload, each with another seed, then for each end-to-end
// metric the median and the distance between the quartiles as a share
// of it — the figure the driver compares with the metric's bound, and
// the one README.md records. It exits non-zero when a spread (other
// than setup_s's, which the driver exempts) exceeds its bound.
func measureSpread(spec *benchSpec, seed int64, seconds float64, n int) int {
	if n < 2 {
		fmt.Fprintln(os.Stderr, "bench: -spread needs at least 2 runs")
		return 2
	}
	code := 0
	values := map[string]map[string][]float64{}
	for _, w := range spec.Workloads {
		values[w.Name] = map[string][]float64{}
		for i := 0; i < n; i++ {
			rr, err := runOne(w.Name, seed+int64(i), seconds, 0)
			if err != nil || !rr.Correct {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: failed (%v)\n", w.Name, seed+int64(i), err)
				code = 1
				continue
			}
			for name, m := range rr.Metrics {
				values[w.Name][name] = append(values[w.Name][name], m.Value)
			}
		}
	}
	fmt.Printf("\n%-14s %-18s %3s %14s %8s %7s\n", "workload", "metric", "n", "median", "spread", "bound")
	for _, w := range spec.Workloads {
		for _, d := range spec.EndToEnd {
			v := values[w.Name][d.Name]
			if len(v) < 2 {
				continue
			}
			sp := spread(v)
			verdict := ""
			if sp > d.Bound && d.Name != "setup_s" {
				verdict = "  EXCEEDS"
				code = 1
			}
			fmt.Printf("%-14s %-18s %3d %14.6g %7.2f%% %6.0f%%%s\n", w.Name, d.Name, len(v), median(v), 100*sp, 100*d.Bound, verdict)
		}
	}
	return code
}

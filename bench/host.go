package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is BENCHMARK.json: the one place metric names, units,
// directions and bounds are declared. The program reads it instead of
// repeating it, and refuses to print a metric the file does not name.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadSpec finds BENCHMARK.json in the working directory or the
// nearest directory above it (the benchmark runs from bench/ under
// `go run -C bench .`) and returns that directory as the checkout root.
func loadSpec() (root string, spec *benchSpec, err error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", nil, err
	}
	for {
		data, rerr := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if rerr == nil {
			spec = &benchSpec{}
			if err := json.Unmarshal(data, spec); err != nil {
				return "", nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return dir, spec, nil
		}
		if !errors.Is(rerr, os.ErrNotExist) {
			return "", nil, rerr
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", nil, errors.New("BENCHMARK.json not found in the working directory or above it")
		}
		dir = parent
	}
}

// hostStamp identifies what produced a set of numbers: commit, host
// shape, toolchain, seed and the workload's own parameters.
func hostStamp(root string, e *env) map[string]any {
	return map[string]any{
		"commit":     gitCommit(root),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"gc_percent": 800,
		"clients":    clients,
		"workload":   e.workload,
		"seed":       e.seed,
		"seconds":    e.seconds,
		"traced":     e.traced,
		"params":     e.params,
	}
}

// gitCommit reads the checked-out commit straight from .git (no child
// process); the driver's checkouts are not repositories, hence
// "unknown" there.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	ref, isRef := strings.CutPrefix(h, "ref: ")
	if !isRef {
		return h
	}
	if data, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(data))
	}
	if packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// stealTicks returns the host's steal and total CPU ticks so far
// (/proc/stat): time the hypervisor ran someone else while this guest
// wanted the CPU. ok is false where the file or field is missing.
func stealTicks() (steal, total float64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// meter reads what a measured phase cost the host: bytes allocated and
// CPU seconds (user + system) of the whole process — client, daemon
// and simulator alike, since they share it.
type meter struct {
	alloc uint64
	cpu   float64
}

func startMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{alloc: ms.TotalAlloc, cpu: cpuSeconds()}
}

// perOp returns KB allocated and CPU microseconds per operation since
// the meter was started.
func (m meter) perOp(ops int) (allocKB, cpuUS float64) {
	now := startMeter()
	n := float64(ops)
	return float64(now.alloc-m.alloc) / 1024 / n, (now.cpu - m.cpu) * 1e6 / n
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

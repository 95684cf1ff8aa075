// Command hydrosim runs a single hybrid-memory simulation and prints a
// detailed report — the equivalent of one zsim invocation in the
// paper's artifact (T2).
//
// Usage:
//
//	hydrosim [flags]
//
// Examples:
//
//	hydrosim -combo C5 -design Hydrogen
//	hydrosim -combo C1 -design Baseline -cycles 20000000 -json
//	hydrosim -cpu mcf,gcc -gpu bert -cores 2 -design Hydrogen
//	hydrosim -cputraces a.trace,b.trace -gputraces g.trace -design Hydrogen
//	hydrosim -combo C5 -design Hydrogen -telemetry c5.csv
//
// With -telemetry, every sampling epoch's telemetry point (IPCs, the
// (cap, bw, tok) operating point, token/migration activity, tier
// utilization — the signal behind the paper's Figs. 8-11) is written to
// the given file: CSV by default, JSON when the path ends in .json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime/debug"
	"strings"

	hydrogen "github.com/hydrogen-sim/hydrogen"
	"github.com/hydrogen-sim/hydrogen/internal/obs"
	"github.com/hydrogen-sim/hydrogen/internal/trace"
)

func main() {
	var (
		comboID = flag.String("combo", "C1", "Table II combo (ignored when -cpu/-gpu given)")
		design  = flag.String("design", hydrogen.DesignHydrogen, "design: "+strings.Join(hydrogen.Designs(), ", "))
		cpuList = flag.String("cpu", "", "comma-separated CPU workloads (cycled over cores)")
		gpuName = flag.String("gpu", "", "GPU workload")
		cores   = flag.Int("cores", 0, "CPU core count override")
		cycles  = flag.Uint64("cycles", 0, "simulated cycles override")
		paper   = flag.Bool("paper", false, "full Table I scale")
		flat    = flag.Bool("flat", false, "flat (swap) mode instead of cache mode")
		seed    = flag.Int64("seed", 1, "simulation seed")
		asJSON  = flag.Bool("json", false, "emit results as JSON")
		cpuTr   = flag.String("cputraces", "", "comma-separated CPU trace files (from tracegen)")
		gpuTr   = flag.String("gputraces", "", "comma-separated GPU trace files")
		wCPU    = flag.Float64("wcpu", 12, "CPU IPC weight")
		wGPU    = flag.Float64("wgpu", 1, "GPU IPC weight")
		telem   = flag.String("telemetry", "", "write per-epoch telemetry to this file (.json for JSON, else CSV)")
	)
	flag.Parse()
	debug.SetGCPercent(800)

	cfg := hydrogen.QuickConfig()
	if *paper {
		cfg = hydrogen.PaperConfig()
	}
	if *cycles > 0 {
		cfg.Cycles = *cycles
	}
	if *cores > 0 {
		cfg.Cores = *cores
	}
	if *flat {
		cfg.Hybrid.Mode = hydrogen.ModeFlat
	}
	cfg.Seed = *seed
	cfg.WeightCPU, cfg.WeightGPU = *wCPU, *wGPU

	var points []hydrogen.TelemetryPoint
	var collect func(hydrogen.TelemetryPoint)
	if *telem != "" {
		collect = func(p hydrogen.TelemetryPoint) { points = append(points, p) }
	}

	var res hydrogen.Results
	var err error
	if *cpuTr != "" || *gpuTr != "" {
		cpuGens, closeCPU, err := trace.OpenFiles(splitList(*cpuTr)...)
		if err != nil {
			log.Fatal(err)
		}
		defer closeCPU()
		gpuGens, closeGPU, err := trace.OpenFiles(splitList(*gpuTr)...)
		if err != nil {
			closeCPU()
			log.Fatal(err)
		}
		defer closeGPU()
		factory, ferr := hydrogen.ApplyDesign(&cfg, *design)
		if ferr != nil {
			log.Fatal(ferr)
		}
		sys, serr := hydrogen.NewSystemWithTraces(cfg, factory, cpuGens, gpuGens)
		if serr != nil {
			log.Fatal(serr)
		}
		if collect != nil {
			sys.SetTelemetry(collect)
		}
		res = sys.Run()
	} else if *cpuList != "" || *gpuName != "" {
		custom := hydrogen.Combo{ID: "custom", CPU: strings.Split(*cpuList, ","), GPU: *gpuName}
		if *cpuList == "" {
			cfg.Cores = 0
		}
		cfg.GPUProfile = custom.GPU
		if cfg.Cores > 0 {
			cfg.CPUProfiles = custom.CPUAssignment(cfg.Cores)
		}
		factory, ferr := hydrogen.ApplyDesign(&cfg, *design)
		if ferr != nil {
			log.Fatal(ferr)
		}
		sys, serr := hydrogen.NewSystem(cfg, factory)
		if serr != nil {
			log.Fatal(serr)
		}
		if collect != nil {
			sys.SetTelemetry(collect)
		}
		res = sys.Run()
	} else {
		res, err = hydrogen.RunObserved(context.Background(), cfg, *design, *comboID,
			hydrogen.RunHooks{OnTelemetry: collect})
		if err != nil {
			log.Fatal(err)
		}
	}

	if *telem != "" {
		if err := writeTelemetry(*telem, points); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "hydrosim: wrote %d telemetry points to %s\n", len(points), *telem)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			log.Fatal(err)
		}
		return
	}

	h := res.Hybrid
	fmt.Printf("design %s on %s for %d cycles\n", *design, *comboID, res.Cycles)
	fmt.Printf("IPC:         CPU %.3f   GPU %.3f   weighted %.3f (%g:%g)\n",
		res.CPUIPC, res.GPUIPC, res.WeightedIPC(*wCPU, *wGPU), *wCPU, *wGPU)
	fmt.Printf("fast tier:   hits %.1f%% CPU / %.1f%% GPU; %d reads, %d writes\n",
		100*h.HitRate(0), 100*h.HitRate(1), res.Fast.Reads, res.Fast.Writes)
	fmt.Printf("slow tier:   %d reads, %d writes; demand misses %d CPU / %d GPU\n",
		res.Slow.Reads, res.Slow.Writes, h.SlowDemandReads[0], h.SlowDemandReads[1])
	fmt.Printf("migrations:  %d CPU / %d GPU; bypassed %d; no-victim %d; queue-full %d\n",
		h.Migrations[0], h.Migrations[1],
		h.Bypasses[0]+h.Bypasses[1], h.NoVictim[0]+h.NoVictim[1],
		h.FillQueueFull[0]+h.FillQueueFull[1])
	fmt.Printf("writebacks:  %d; swaps %d; misplaced invalidations %d\n",
		h.Writebacks[0]+h.Writebacks[1], h.Swaps, h.Misplaced)
	fmt.Printf("remap cache: %.1f%% hit (%d misses)\n",
		100*float64(h.RemapHits)/float64(max64(h.RemapHits+h.RemapMisses, 1)), h.RemapMisses)
	fmt.Printf("avg latency: CPU %.0f cycles, GPU %.0f cycles\n", h.AvgLatency(0), h.AvgLatency(1))
	fmt.Printf("energy:      %.2f mJ total (fast %.2f dyn + %.2f static, slow %.2f dyn + %.2f static)\n",
		res.TotalEnergyPJ()/1e9, res.FastDynamicPJ/1e9, res.FastStaticPJ/1e9,
		res.SlowDynamicPJ/1e9, res.SlowStaticPJ/1e9)
}

// writeTelemetry dumps the collected epoch points to path, CSV or JSON
// depending on the extension.
func writeTelemetry(path string, points []hydrogen.TelemetryPoint) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteFileFormat(f, path, points); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// splitList turns a comma-separated flag value into paths ("" = none).
func splitList(list string) []string {
	if list == "" {
		return nil
	}
	return strings.Split(list, ",")
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// Command hydroexp regenerates the paper's tables and figures.
//
// Usage:
//
//	hydroexp [flags] <experiment> [<experiment>...]
//
// Experiments: table1 table2 fig2a fig2b fig2c fig2d fig5a fig5b fig6
// counters fig7a fig7b fig8 fig9a fig9b fig10a fig10b fig11 all
//
// counters is a third view of the fig5a runs beside fig5a and fig6: one
// row of raw counters (hit rates, tier traffic, migrations, latencies,
// energy) per combo and design. It is not part of all.
//
// One invocation makes each distinct run once, whichever experiments
// ask for it (`fig5a fig6 counters` simulates the fig5a runs once).
// Unless -q is given, the last stderr line counts the runs made and the
// requests served from the run memo.
//
// Examples:
//
//	hydroexp fig5a                      # main comparison, quick scale
//	hydroexp -combos C1,C5 -csv fig5a   # two combos, CSV output
//	hydroexp -q -combos C5 counters     # per-run counters, all seven designs
//	hydroexp -paper all                 # full-scale everything (slow)
//	hydroexp -server http://:8077 fig5a # run against a hydroserved daemon
//	hydroexp -telemetry /tmp/telem fig8 # dump per-run epoch telemetry CSVs
//
// With -server, every distinct run is submitted to the daemon instead
// of running in-process, so repeated sweeps hit its content-addressed
// result cache; its job IDs are the same content addresses.
//
// Exit codes: 0 success, 1 experiment error (including an unknown
// -combos ID), 2 usage error (bad flag, unknown experiment).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"strings"
	"time"

	"github.com/hydrogen-sim/hydrogen/client"
	"github.com/hydrogen-sim/hydrogen/experiments"
	"github.com/hydrogen-sim/hydrogen/internal/system"
	"github.com/hydrogen-sim/hydrogen/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment injected, so the CLI is testable
// in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hydroexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		paper    = fs.Bool("paper", false, "use the full Table I scale (slow)")
		cycles   = fs.Uint64("cycles", 0, "override simulated cycles per run")
		combos   = fs.String("combos", "", "comma-separated combo subset (e.g. C1,C5)")
		csv      = fs.Bool("csv", false, "emit CSV instead of aligned text")
		parallel = fs.Int("parallel", 0, "concurrent simulations; 0 = all CPUs, 1 = serial")
		seed     = fs.Int64("seed", 1, "simulation seed")
		quiet    = fs.Bool("q", false, "suppress progress output")
		server   = fs.String("server", "", "hydroserved base URL; every simulation is submitted there")
		telemDir = fs.String("telemetry", "", "directory for per-run epoch telemetry CSVs (local runs only)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	debug.SetGCPercent(800)

	base := system.Quick()
	if *paper {
		base = system.Paper()
	}
	if *cycles > 0 {
		base.Cycles = *cycles
	}
	base.Seed = *seed

	// One run memo for the whole invocation: every distinct run is made
	// once, whichever experiments ask for it.
	opts := experiments.Options{Base: base, Parallel: *parallel}.ShareRuns()
	if !*quiet {
		opts.Progress = stderr
	}
	if *telemDir != "" {
		if err := os.MkdirAll(*telemDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "hydroexp: %v\n", err)
			return 1
		}
		opts.TelemetryDir = *telemDir
	}
	if *server != "" {
		cl := client.New(*server)
		opts.Runner = func(cfg system.Config, design system.DesignSpec, combo workloads.Combo) (system.Results, error) {
			req := client.JobRequest{
				Config:   &cfg,
				Design:   design.Policy,
				Hydrogen: design.Options(),
				Combo:    client.ComboSpec{ID: combo.ID, CPU: combo.CPU, GPU: combo.GPU},
			}
			for {
				res, _, err := cl.Run(context.Background(), req)
				// A sweep has no deadline of its own: when the daemon's
				// queue is full, wait out its Retry-After and resubmit
				// rather than fail the whole experiment. Content addressing
				// makes the resubmit attach to any work already admitted.
				if errors.Is(err, client.ErrOverloaded) {
					wait := client.RetryAfterHint(err)
					if wait <= 0 {
						wait = time.Second
					}
					time.Sleep(wait)
					continue
				}
				return res, err
			}
		}
	}
	if *combos != "" {
		opts.Combos = strings.Split(*combos, ",")
	}

	// The heavy sweeps default to a representative combo subset so
	// `hydroexp all` finishes in reasonable time; pass -combos to widen.
	subset := func(ids ...string) experiments.Options {
		o := opts
		if len(o.Combos) == 0 {
			o.Combos = ids
		}
		return o
	}

	names := fs.Args()
	if len(names) == 1 && names[0] == "all" {
		names = []string{"table1", "table2", "fig2a", "fig2b", "fig2c", "fig2d",
			"fig5a", "fig5b", "fig6", "fig7a", "fig7b", "fig8", "fig9a", "fig9b",
			"fig10a", "fig10b", "fig11"}
	}

	emit := func(t *experiments.Table) {
		if *csv {
			t.WriteCSV(stdout)
		} else {
			t.WriteText(stdout)
		}
		fmt.Fprintln(stdout)
	}

	for _, name := range names {
		var err error
		switch name {
		case "table1":
			emit(experiments.Table1(base))
		case "table2":
			emit(experiments.Table2())
		case "fig2a":
			var rows []experiments.Fig2aRow
			if rows, err = experiments.Fig2a(opts); err == nil {
				emit(experiments.Fig2aTable(rows))
			}
		case "fig2b", "fig2c", "fig2d":
			knob := map[string]experiments.SensitivityKnob{
				"fig2b": experiments.KnobFastBW,
				"fig2c": experiments.KnobFastCapacity,
				"fig2d": experiments.KnobSlowBW,
			}[name]
			var rows []experiments.Fig2SensRow
			if rows, err = experiments.Fig2Sensitivity(opts, "C1", knob, nil); err == nil {
				emit(experiments.Fig2SensTable(knob, rows))
			}
		case "fig5a":
			var r *experiments.Fig5Result
			if r, err = experiments.Fig5(opts, false); err == nil {
				emit(r.Table("Fig. 5(a): weighted speedup over baseline (HBM2E)"))
				ratio, best := r.HydrogenVsBest()
				fmt.Fprintf(stdout, "Hydrogen vs best baseline (%s): %.3fx geomean\n\n", best, ratio)
			}
		case "fig5b":
			var r *experiments.Fig5Result
			if r, err = experiments.Fig5(opts, true); err == nil {
				emit(r.Table("Fig. 5(b): weighted speedup over baseline (HBM3)"))
			}
		case "fig6":
			var r *experiments.Fig5Result
			if r, err = experiments.Fig5(opts, false); err == nil {
				emit(r.Fig6Table())
			}
		case "counters":
			var r *experiments.Fig5Result
			if r, err = experiments.Fig5(opts, false); err == nil {
				emit(r.CountersTable())
			}
		case "fig7a":
			var m map[string]float64
			if m, err = experiments.Fig7a(subset("C1", "C5", "C8", "C11")); err == nil {
				emit(experiments.Fig7aTable(m))
			}
		case "fig7b":
			var m map[string]float64
			if m, err = experiments.Fig7b(subset("C1", "C5")); err == nil {
				emit(experiments.Fig7bTable(m))
			}
		case "fig8":
			var r *experiments.Fig8Result
			if r, err = experiments.Fig8(opts, "C5", experiments.Full); err == nil {
				emit(r.Table())
				fmt.Fprintf(stdout, "Hydrogen reaches %.1f%% of the static optimum %s\n\n",
					100*r.HydrogenVsOptimal(), r.Best().Point)
			}
		case "fig9a":
			var rows []experiments.Fig9Row
			if rows, err = experiments.Fig9Phase(subset("C1", "C5"), nil); err == nil {
				emit(experiments.Fig9Table("Fig. 9(a): phase length sensitivity", rows))
			}
		case "fig9b":
			var rows []experiments.Fig9Row
			if rows, err = experiments.Fig9Epoch(subset("C1", "C5"), nil); err == nil {
				emit(experiments.Fig9Table("Fig. 9(b): sampling epoch length sensitivity", rows))
			}
		case "fig10a":
			var rows []experiments.Fig10aRow
			if rows, err = experiments.Fig10a(opts, "C6", nil); err == nil {
				emit(experiments.Fig10aTable("C6", rows))
			}
		case "fig10b":
			var rows []experiments.Fig10bRow
			if rows, err = experiments.Fig10b(subset("C1", "C5"), nil); err == nil {
				emit(experiments.Fig10bTable(rows))
			}
		case "fig11":
			var rows []experiments.Fig11Row
			if rows, err = experiments.Fig11(subset("C1", "C5"), nil); err == nil {
				emit(experiments.Fig11Table(rows))
			}
		default:
			fmt.Fprintf(stderr, "hydroexp: unknown experiment %q\n", name)
			return 2
		}
		if err != nil {
			fmt.Fprintf(stderr, "hydroexp: %s: %v\n", name, err)
			return 1
		}
	}
	if !*quiet {
		made, reused := opts.RunCounts()
		fmt.Fprintf(stderr, "hydroexp: %d simulations, %d served from the run memo\n", made, reused)
	}
	return 0
}

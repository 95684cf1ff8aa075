// Package workloads is the profile registry: synthetic stand-ins for the
// paper's SPEC CPU2017, Rodinia, and MLPerf BERT workloads, plus the
// twelve CPU+GPU combinations of Table II.
//
// Each profile's knobs are expressed as fractions of the fast-tier
// capacity so that the quick (scaled-down) and paper-sized
// configurations exercise the same contention regimes. The parameters
// encode the aggregate properties the paper's insights rest on: SPEC
// profiles differ in footprint, hot-set size, randomness, and write
// ratio; GPU profiles differ in footprint, reuse, block utilization,
// and irregularity (streamcluster's 1-line-in-4 utilization is what
// makes unthrottled migration wasteful, Section VI-B).
package workloads

import (
	"fmt"

	"github.com/hydrogen-sim/hydrogen/internal/trace"
)

type cpuSpec struct {
	fp, hot                        float64 // x fast capacity
	hotFrac, streamFrac, chaseFrac float64
	writeFrac                      float64
	gap                            uint32
}

var cpuSpecs = map[string]cpuSpec{
	"gcc":        {fp: 0.25, hot: 0.040, hotFrac: 0.80, streamFrac: 0.10, chaseFrac: 0.05, writeFrac: 0.25, gap: 40},
	"mcf":        {fp: 1.00, hot: 0.250, hotFrac: 0.70, streamFrac: 0.05, chaseFrac: 0.20, writeFrac: 0.20, gap: 18},
	"lbm":        {fp: 0.80, hot: 0.020, hotFrac: 0.10, streamFrac: 0.85, chaseFrac: 0.03, writeFrac: 0.45, gap: 22},
	"roms":       {fp: 0.60, hot: 0.080, hotFrac: 0.50, streamFrac: 0.42, chaseFrac: 0.04, writeFrac: 0.30, gap: 26},
	"omnetpp":    {fp: 0.50, hot: 0.120, hotFrac: 0.75, streamFrac: 0.05, chaseFrac: 0.15, writeFrac: 0.30, gap: 30},
	"xz":         {fp: 0.40, hot: 0.100, hotFrac: 0.70, streamFrac: 0.20, chaseFrac: 0.05, writeFrac: 0.35, gap: 35},
	"deepsjeng":  {fp: 0.30, hot: 0.060, hotFrac: 0.82, streamFrac: 0.05, chaseFrac: 0.08, writeFrac: 0.25, gap: 45},
	"cactusBSSN": {fp: 0.70, hot: 0.100, hotFrac: 0.45, streamFrac: 0.47, chaseFrac: 0.04, writeFrac: 0.35, gap: 24},
	"fotonik3d":  {fp: 0.90, hot: 0.050, hotFrac: 0.30, streamFrac: 0.62, chaseFrac: 0.04, writeFrac: 0.30, gap: 20},
	"bwaves":     {fp: 1.20, hot: 0.080, hotFrac: 0.40, streamFrac: 0.52, chaseFrac: 0.04, writeFrac: 0.25, gap: 21},
}

type gpuSpec struct {
	region, hot        float64 // x fast capacity (whole-GPU totals)
	hotFrac, irregFrac float64
	strideLines        uint64
	writeFrac          float64
	gap                uint32
}

var gpuSpecs = map[string]gpuSpec{
	// Gaps are GPU instructions per post-coalescing memory access; with
	// 6 subslices retiring 8 instr/cycle each, gap 20 is ~2.4 lines/cycle
	// of raw demand — enough that, as with the paper's trace-driven GPU,
	// the memory system rather than the front end is the limiter.
	//
	// Most Rodinia kernels' working sets FIT the fast tier (as the
	// paper's do): their hit rates stay high even at small capacity
	// shares (Fig. 2(c)), they stress fast-tier *bandwidth*, and their
	// slow-tier pressure is migration sweeps. streamcluster and bfs are
	// the exceptions: footprints far beyond the fast tier with poor
	// block utilization, the migration-amplification cases that
	// token-based throttling exists for (Section VI-B).
	"backprop":      {region: 0.10, hot: 0.02, hotFrac: 0.10, strideLines: 1, writeFrac: 0.30, gap: 18},
	"hotspot":       {region: 0.09, hot: 0.02, hotFrac: 0.10, strideLines: 1, writeFrac: 0.30, gap: 20},
	"lud":           {region: 0.07, hot: 0.01, hotFrac: 0.25, strideLines: 1, writeFrac: 0.30, gap: 24},
	"streamcluster": {region: 4.00, hot: 0.01, hotFrac: 0.05, irregFrac: 0.10, strideLines: 4, writeFrac: 0.05, gap: 28},
	"pathfinder":    {region: 0.12, hot: 0.01, hotFrac: 0.10, strideLines: 1, writeFrac: 0.25, gap: 22},
	"needle":        {region: 0.10, hot: 0.015, hotFrac: 0.10, irregFrac: 0.30, strideLines: 2, writeFrac: 0.30, gap: 26},
	"bfs":           {region: 2.50, hot: 0.01, hotFrac: 0.10, irregFrac: 0.70, strideLines: 2, writeFrac: 0.15, gap: 32},
	"srad":          {region: 0.10, hot: 0.02, hotFrac: 0.10, strideLines: 1, writeFrac: 0.35, gap: 22},
	// bert: GEMM inference; weights re-read heavily — the GPU profile
	// that does want fast-tier capacity.
	"bert": {region: 0.30, hot: 0.08, hotFrac: 0.35, strideLines: 1, writeFrac: 0.10, gap: 20},
}

// CPUNames lists the available SPEC stand-ins.
func CPUNames() []string {
	return []string{"gcc", "mcf", "lbm", "roms", "omnetpp", "xz", "deepsjeng", "cactusBSSN", "fotonik3d", "bwaves"}
}

// GPUNames lists the available Rodinia/MLPerf stand-ins.
func GPUNames() []string {
	return []string{"backprop", "hotspot", "lud", "streamcluster", "pathfinder", "needle", "bfs", "srad", "bert"}
}

// CPUProfile scales the named profile to a system whose fast tier holds
// fastCap bytes.
func CPUProfile(name string, fastCap uint64) (trace.CPUParams, error) {
	s, ok := cpuSpecs[name]
	if !ok {
		return trace.CPUParams{}, fmt.Errorf("workloads: unknown CPU profile %q", name)
	}
	f := float64(fastCap)
	return trace.CPUParams{
		Footprint:  alignUp(uint64(s.fp*f), 4096),
		Hot:        alignUp(uint64(s.hot*f), 1024),
		HotFrac:    s.hotFrac,
		StreamFrac: s.streamFrac,
		ChaseFrac:  s.chaseFrac,
		WriteFrac:  s.writeFrac,
		MeanGap:    s.gap,
	}, nil
}

// GPUProfile scales the named profile; the returned params are
// whole-GPU totals that the system divides across subslices.
func GPUProfile(name string, fastCap uint64) (trace.GPUParams, error) {
	s, ok := gpuSpecs[name]
	if !ok {
		return trace.GPUParams{}, fmt.Errorf("workloads: unknown GPU profile %q", name)
	}
	f := float64(fastCap)
	return trace.GPUParams{
		Region:      alignUp(uint64(s.region*f), 4096),
		Hot:         alignUp(uint64(s.hot*f), 1024),
		HotFrac:     s.hotFrac,
		IrregFrac:   s.irregFrac,
		StrideLines: s.strideLines,
		WriteFrac:   s.writeFrac,
		MeanGap:     s.gap,
	}, nil
}

func alignUp(v, a uint64) uint64 { return (v + a - 1) &^ (a - 1) }

// Combo is one row of Table II: four CPU workloads (run in rate mode
// with two copies each, one per core) plus one GPU workload.
type Combo struct {
	ID  string
	CPU []string // 4 names; expanded to 8 cores by CPUAssignment
	GPU string
}

// Combos reproduces Table II.
var Combos = []Combo{
	{"C1", []string{"gcc", "mcf", "lbm", "roms"}, "backprop"},
	{"C2", []string{"omnetpp", "lbm", "gcc", "xz"}, "backprop"},
	{"C3", []string{"roms", "mcf", "deepsjeng", "cactusBSSN"}, "hotspot"},
	{"C4", []string{"lbm", "fotonik3d", "deepsjeng", "omnetpp"}, "lud"},
	{"C5", []string{"roms", "lbm", "deepsjeng", "fotonik3d"}, "streamcluster"},
	{"C6", []string{"omnetpp", "xz", "roms", "deepsjeng"}, "pathfinder"},
	{"C7", []string{"bwaves", "gcc", "xz", "fotonik3d"}, "needle"},
	{"C8", []string{"fotonik3d", "gcc", "omnetpp", "deepsjeng"}, "bfs"},
	{"C9", []string{"mcf", "cactusBSSN", "roms", "deepsjeng"}, "srad"},
	{"C10", []string{"deepsjeng", "xz", "roms", "bwaves"}, "pathfinder"},
	{"C11", []string{"omnetpp", "gcc", "fotonik3d", "lbm"}, "bert"},
	{"C12", []string{"mcf", "gcc", "cactusBSSN", "omnetpp"}, "bert"},
}

// ComboByID looks up a Table II combination.
func ComboByID(id string) (Combo, error) {
	for _, c := range Combos {
		if c.ID == id {
			return c, nil
		}
	}
	return Combo{}, fmt.Errorf("workloads: unknown combo %q", id)
}

// CPUAssignment expands a combo's 4 workloads to cores rate-mode style:
// core i runs CPU[i%4] (two copies each on the Table I 8-core machine;
// other core counts cycle through the same list). It is nil when the
// combo has no CPU workloads or cores is negative, which system.New
// rejects for a run with cores.
func (c Combo) CPUAssignment(cores int) []string {
	if len(c.CPU) == 0 || cores < 0 {
		return nil
	}
	out := make([]string, cores)
	for i := range out {
		out[i] = c.CPU[i%len(c.CPU)]
	}
	return out
}

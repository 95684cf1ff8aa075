// Package obs is the observability layer: per-epoch telemetry capture
// into bounded ring buffers, lightweight span tracing, a small metrics
// registry (counters, gauges, fixed-bucket histograms) rendered in
// Prometheus text exposition format, a log/slog constructor, the HTTP
// middleware that mints and echoes request IDs, and an opt-in debug mux
// (net/http/pprof + runtime metrics).
//
// The package deliberately imports nothing from the simulator, so every
// tier of the stack — the system core, the serving layer, the CLIs, and
// the client — can depend on it without cycles. EpochPoint is a flat
// struct of plain numbers the system core fills in at each sampling
// epoch; everything downstream (the /telemetry snapshots, CSV
// artifacts, the knob-trajectory tables of Figs. 8-11) is a view over a
// sequence of them.
package obs

import (
	"encoding/csv"
	"io"
	"strconv"
	"sync"
)

// EpochPoint is one sampling epoch's telemetry: the measurements the
// paper's Figures 8-11 plot (knob trajectory, token-faucet behavior,
// migration and swap rates, tier utilization), captured as deltas over
// the epoch where the underlying counters are cumulative.
type EpochPoint struct {
	Epoch    int    `json:"epoch"`     // 0-based epoch index
	EndCycle uint64 `json:"end_cycle"` // simulated cycle the epoch ended on

	CPUIPC      float64 `json:"cpu_ipc"`
	GPUIPC      float64 `json:"gpu_ipc"`
	WeightedIPC float64 `json:"weighted_ipc"`

	// Operating point after this epoch's adaptation step: cap (CPU ways
	// per set), bw (dedicated CPU channel groups), tok (token-level
	// index). All -1 when the active policy has no such point.
	CapWays  int `json:"cap_ways"`
	BwGroups int `json:"bw_groups"`
	TokIdx   int `json:"tok_idx"`

	// Token faucet activity over the epoch (Section IV-B).
	TokensGranted uint64 `json:"tokens_granted"`
	TokensDenied  uint64 `json:"tokens_denied"`

	// Migration/swap activity over the epoch.
	MigrationsCPU uint64 `json:"migrations_cpu"`
	MigrationsGPU uint64 `json:"migrations_gpu"`
	Bypassed      uint64 `json:"bypassed"` // victim found but migration denied
	Swaps         uint64 `json:"swaps"`

	// Demand accesses and fast-tier hits over the epoch, per source.
	DemandCPU   uint64 `json:"demand_cpu"`
	DemandGPU   uint64 `json:"demand_gpu"`
	FastHitsCPU uint64 `json:"fast_hits_cpu"`
	FastHitsGPU uint64 `json:"fast_hits_gpu"`

	// Channel utilization over the epoch: the fraction of the tier's
	// aggregate bus-cycle capacity that was busy, in [0,1].
	FastUtil float64 `json:"fast_util"`
	SlowUtil float64 `json:"slow_util"`
}

// Ring is a bounded, concurrency-safe ring buffer of epoch points: the
// per-run telemetry store of the serving layer. Appends are O(1) under
// one uncontended mutex (the writer is the simulation goroutine, the
// readers are HTTP handlers taking snapshots); once full, the oldest
// point is overwritten and counted as dropped, so a multi-day run can
// stream forever in bounded memory. The buffer grows on append, so a
// short run holds only the points it produced.
type Ring struct {
	mu      sync.Mutex
	buf     []EpochPoint // the points held; grows to limit, then wraps
	limit   int
	start   int // index of the oldest element; 0 until the ring is full
	dropped uint64
}

// DefaultRingPoints is the per-job telemetry bound the serving layer
// uses when the operator does not set one: at the quick configuration's
// 400k-cycle epochs it holds 25 full runs; at the paper's 10M-cycle
// epochs, 200x that.
const DefaultRingPoints = 4096

// NewRing returns a ring holding at most capacity points (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{limit: capacity}
}

// Append records p, overwriting the oldest point when full.
func (r *Ring) Append(p EpochPoint) {
	r.mu.Lock()
	if n := len(r.buf); n < r.limit {
		if n == cap(r.buf) {
			// Double, but never past the limit.
			grown := make([]EpochPoint, n, min(max(2*n, 4), r.limit))
			copy(grown, r.buf)
			r.buf = grown
		}
		r.buf = append(r.buf, p)
	} else {
		r.buf[r.start] = p
		r.start = (r.start + 1) % len(r.buf)
		r.dropped++
	}
	r.mu.Unlock()
}

// Snapshot returns the retained points, oldest first. The slice is a
// copy; the caller may keep it across further appends.
func (r *Ring) Snapshot() []EpochPoint {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]EpochPoint, 0, len(r.buf))
	out = append(out, r.buf[r.start:]...)
	return append(out, r.buf[:r.start]...)
}

// Len reports how many points the ring currently holds.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Dropped reports how many points were overwritten since creation.
func (r *Ring) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// csvHeader lists the CSV columns in EpochPoint field order. Kept in
// one place so WriteCSV and scripts/epoch_plot.sh agree by name, not by
// position.
var csvHeader = []string{
	"epoch", "end_cycle", "cpu_ipc", "gpu_ipc", "weighted_ipc",
	"cap_ways", "bw_groups", "tok_idx",
	"tokens_granted", "tokens_denied",
	"migrations_cpu", "migrations_gpu", "bypassed", "swaps",
	"demand_cpu", "demand_gpu", "fast_hits_cpu", "fast_hits_gpu",
	"fast_util", "slow_util",
}

// CSVHeader returns the column names WriteCSV emits.
func CSVHeader() []string { return append([]string(nil), csvHeader...) }

// WriteCSV renders points as a CSV telemetry artifact: one header line
// followed by one row per epoch. Floats use the shortest round-trip
// representation.
func WriteCSV(w io.Writer, points []EpochPoint) error {
	cw := csv.NewWriter(w)
	// A failed write sticks in cw's buffer, so one Error after the
	// Flush reports it.
	_ = cw.Write(csvHeader)
	row := make([]string, len(csvHeader))
	for _, p := range points {
		row[0] = strconv.Itoa(p.Epoch)
		row[1] = strconv.FormatUint(p.EndCycle, 10)
		row[2] = formatFloat(p.CPUIPC)
		row[3] = formatFloat(p.GPUIPC)
		row[4] = formatFloat(p.WeightedIPC)
		row[5] = strconv.Itoa(p.CapWays)
		row[6] = strconv.Itoa(p.BwGroups)
		row[7] = strconv.Itoa(p.TokIdx)
		row[8] = strconv.FormatUint(p.TokensGranted, 10)
		row[9] = strconv.FormatUint(p.TokensDenied, 10)
		row[10] = strconv.FormatUint(p.MigrationsCPU, 10)
		row[11] = strconv.FormatUint(p.MigrationsGPU, 10)
		row[12] = strconv.FormatUint(p.Bypassed, 10)
		row[13] = strconv.FormatUint(p.Swaps, 10)
		row[14] = strconv.FormatUint(p.DemandCPU, 10)
		row[15] = strconv.FormatUint(p.DemandGPU, 10)
		row[16] = strconv.FormatUint(p.FastHitsCPU, 10)
		row[17] = strconv.FormatUint(p.FastHitsGPU, 10)
		row[18] = formatFloat(p.FastUtil)
		row[19] = formatFloat(p.SlowUtil)
		_ = cw.Write(row)
	}
	cw.Flush()
	return cw.Error()
}

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

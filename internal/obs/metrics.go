package obs

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a small metrics registry — counters, gauges, and
// fixed-bucket histograms — rendered in Prometheus text exposition
// format. Updates are plain atomics (no lock on the hot path); the
// render path snapshots every series in one pass before writing a
// single byte, so a scrape observes one coherent instant rather than
// values read piecemeal while fmt I/O interleaves with updates.
type Registry struct {
	mu     sync.Mutex
	series []series // in registration order
	names  map[string]struct{}
}

// series is one registered metric family.
type series struct {
	name, help, kind string
	counter          *Counter
	gauge            *Gauge
	gaugeFn          func() int64
	hist             *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]struct{})}
}

func (r *Registry) register(s series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.names[s.name]; dup {
		panic("obs: duplicate metric " + s.name)
	}
	r.names[s.name] = struct{}{}
	r.series = append(r.series, s)
}

// Counter is a monotonically increasing int64.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a settable int64.
type Gauge struct{ v atomic.Int64 }

// Add moves the gauge by d (may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(series{name: name, help: help, kind: "counter", counter: c})
	return c
}

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(series{name: name, help: help, kind: "gauge", gauge: g})
	return g
}

// GaugeFunc registers a gauge whose value is computed at scrape time —
// for quantities another subsystem already tracks (cache bytes, journal
// file size). fn must be cheap and safe to call concurrently.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	r.register(series{name: name, help: help, kind: "gauge", gaugeFn: fn})
}

// CounterFunc registers a counter whose value is computed at scrape
// time — for monotonic quantities derived from other counters (e.g.
// seconds totals maintained as nanoseconds). fn must be monotonic,
// cheap, and safe to call concurrently.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	r.register(series{name: name, help: help, kind: "counter", gaugeFn: fn})
}

// Histogram is a fixed-bucket cumulative histogram in the Prometheus
// style: counts per upper bound, a +Inf bucket, a sum, and a count.
// Observations are lock-free atomics; the float sum is maintained with
// a CAS loop over its bit pattern.
type Histogram struct {
	bounds []float64 // sorted upper bounds, exclusive of +Inf
	counts []atomic.Int64
	inf    atomic.Int64
	sum    atomic.Uint64 // math.Float64bits
	count  atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Buckets are few (≤ ~16); linear scan beats binary search here.
	placed := false
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			placed = true
			break
		}
	}
	if !placed {
		h.inf.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			break
		}
	}
}

// Count returns the number of observations so far.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values so far.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Histogram registers a histogram with the given bucket upper bounds
// (sorted ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	h := &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs))}
	r.register(series{name: name, help: help, kind: "histogram", hist: h})
	return h
}

// DurationBuckets are generic latency bounds in seconds, from 100µs to
// 5 minutes — wide enough to cover HTTP handling and whole-job wall
// time at quick scale in one shape.
var DurationBuckets = []float64{
	0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 30, 120, 300,
}

// SeriesSnapshot is one family's values frozen at scrape time.
type SeriesSnapshot struct {
	Name string `json:"name"`
	Help string `json:"help,omitempty"`
	Kind string `json:"kind"`
	// Counter / gauge value.
	Value int64 `json:"value"`
	// Histogram shape: per-bucket (non-cumulative) counts aligned with
	// Bounds, the +Inf overflow, and the sum/count pair.
	Bounds  []float64 `json:"bounds,omitempty"`
	Buckets []int64   `json:"buckets,omitempty"`
	Inf     int64     `json:"inf,omitempty"`
	Sum     float64   `json:"sum,omitempty"`
	Count   int64     `json:"count,omitempty"`
}

// Snapshot freezes every registered series in one pass of atomic loads,
// in registration order: the single source /metrics renders from.
func (r *Registry) Snapshot() []SeriesSnapshot {
	r.mu.Lock()
	families := append([]series(nil), r.series...)
	r.mu.Unlock()

	snaps := make([]SeriesSnapshot, len(families))
	for i, s := range families {
		snap := SeriesSnapshot{Name: s.name, Help: s.help, Kind: s.kind}
		switch {
		case s.counter != nil:
			snap.Value = s.counter.Load()
		case s.gauge != nil:
			snap.Value = s.gauge.Load()
		case s.gaugeFn != nil:
			snap.Value = s.gaugeFn()
		case s.hist != nil:
			snap.Bounds = s.hist.bounds
			snap.Buckets = make([]int64, len(s.hist.counts))
			for b := range s.hist.counts {
				snap.Buckets[b] = s.hist.counts[b].Load()
			}
			snap.Inf = s.hist.inf.Load()
			snap.Sum = s.hist.Sum()
			snap.Count = s.hist.count.Load()
		}
		snaps[i] = snap
	}
	return snaps
}

// WritePrometheus renders every registered series in text exposition
// format. All values are loaded into a snapshot first (one pass), then
// rendered, so the output is internally consistent to within a single
// pass of atomic loads regardless of how slowly w accepts bytes.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, s := range r.Snapshot() {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", s.Name, s.Help, s.Name, s.Kind)
		writeFamily(&b, s)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeFamily renders one snapshot family's samples.
func writeFamily(b *strings.Builder, s SeriesSnapshot) {
	if s.Kind != "histogram" {
		fmt.Fprintf(b, "%s %d\n", s.Name, s.Value)
		return
	}
	cum := int64(0)
	for i, bound := range s.Bounds {
		cum += s.Buckets[i]
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", s.Name, formatFloat(bound), cum)
	}
	// The +Inf bucket equals _count by construction.
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", s.Name, cum+s.Inf)
	fmt.Fprintf(b, "%s_sum %s\n", s.Name, formatFloat(s.Sum))
	fmt.Fprintf(b, "%s_count %d\n", s.Name, s.Count)
}

// --- exposition-format validation ---

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	sampleRe     = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})?\s+(\S+)(\s+-?\d+)?$`)
	labelRe      = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$`)
)

// ValidateExposition checks that text is well-formed Prometheus text
// exposition format under the rules this repo enforces:
//
//   - every line is a # HELP / # TYPE comment or a sample line;
//   - sample values parse as floats (or +Inf/-Inf/NaN);
//   - labels, when present, are name="value" pairs;
//   - every sample's family has both # HELP and # TYPE declared before
//     its first sample (histogram _bucket/_sum/_count resolve to their
//     base family);
//   - no family declares # TYPE twice.
//
// It returns an error naming the first offending line.
func ValidateExposition(text string) error {
	typeOf := make(map[string]string)
	helped := make(map[string]bool)
	lines := strings.Split(text, "\n")
	for ln, line := range lines {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return fmt.Errorf("line %d: malformed comment %q", ln+1, line)
			}
			name := fields[2]
			if !metricNameRe.MatchString(name) {
				return fmt.Errorf("line %d: bad metric name %q", ln+1, name)
			}
			if fields[1] == "HELP" {
				if len(fields) < 4 || strings.TrimSpace(fields[3]) == "" {
					return fmt.Errorf("line %d: HELP for %s has no text", ln+1, name)
				}
				helped[name] = true
				continue
			}
			if len(fields) < 4 {
				return fmt.Errorf("line %d: TYPE for %s has no kind", ln+1, name)
			}
			kind := strings.TrimSpace(fields[3])
			switch kind {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return fmt.Errorf("line %d: unknown TYPE %q for %s", ln+1, kind, name)
			}
			if _, dup := typeOf[name]; dup {
				return fmt.Errorf("line %d: duplicate TYPE for %s", ln+1, name)
			}
			typeOf[name] = kind
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			return fmt.Errorf("line %d: malformed sample %q", ln+1, line)
		}
		name, labels, value := m[1], m[2], m[3]
		switch value {
		case "+Inf", "-Inf", "NaN":
		default:
			if _, err := strconv.ParseFloat(value, 64); err != nil {
				return fmt.Errorf("line %d: bad value %q: %v", ln+1, value, err)
			}
		}
		if labels != "" {
			inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
			for _, pair := range splitLabels(inner) {
				if !labelRe.MatchString(pair) {
					return fmt.Errorf("line %d: bad label %q", ln+1, pair)
				}
			}
		}
		family := baseFamily(name, typeOf)
		if _, ok := typeOf[family]; !ok {
			return fmt.Errorf("line %d: sample %s has no preceding # TYPE", ln+1, name)
		}
		if !helped[family] {
			return fmt.Errorf("line %d: sample %s has no preceding # HELP", ln+1, name)
		}
	}
	return nil
}

// baseFamily strips the histogram/summary sample suffixes when the
// stripped name matches a declared histogram or summary family.
func baseFamily(name string, typeOf map[string]string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok {
			if k := typeOf[base]; k == "histogram" || k == "summary" {
				return base
			}
		}
	}
	return name
}

// splitLabels splits `a="x",b="y"` on commas outside quotes.
func splitLabels(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	depth := false // inside quotes
	last := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++ // skip escaped char
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, s[last:i])
				last = i + 1
			}
		}
	}
	return append(out, s[last:])
}

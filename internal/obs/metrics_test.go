package obs

import (
	"strings"
	"sync"
	"testing"
)

// buildRegistry assembles one of every series kind with known values.
func buildRegistry() (*Registry, *Histogram) {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "Requests handled.")
	c.Add(7)
	g := r.Gauge("test_queue_depth", "Jobs queued.")
	g.Set(3)
	r.GaugeFunc("test_cache_bytes", "Cache size in bytes.", func() int64 { return 4096 })
	r.CounterFunc("test_sim_seconds_total", "Simulated seconds.", func() int64 { return 12 })
	h := r.Histogram("test_latency_seconds", "Request latency.", []float64{0.01, 0.1, 1})
	return r, h
}

func TestWritePrometheusValidates(t *testing.T) {
	r, h := buildRegistry()
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(50) // lands in +Inf

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if err := ValidateExposition(text); err != nil {
		t.Fatalf("own output fails validation: %v\n%s", err, text)
	}
	for _, want := range []string{
		"# HELP test_requests_total Requests handled.",
		"# TYPE test_requests_total counter",
		"test_requests_total 7",
		"# TYPE test_queue_depth gauge",
		"test_queue_depth 3",
		"test_cache_bytes 4096",
		"# TYPE test_sim_seconds_total counter",
		"test_sim_seconds_total 12",
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{le="0.01"} 1`,
		`test_latency_seconds_bucket{le="0.1"} 2`,
		`test_latency_seconds_bucket{le="1"} 3`,
		`test_latency_seconds_bucket{le="+Inf"} 4`,
		"test_latency_seconds_count 4",
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("output missing %q\n%s", want, text)
		}
	}
}

func TestHistogramSumCount(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "h.", []float64{1, 2})
	for _, v := range []float64{0.5, 1.5, 3} {
		h.Observe(v)
	}
	if got := h.Count(); got != 3 {
		t.Fatalf("Count = %d, want 3", got)
	}
	if got := h.Sum(); got != 5 {
		t.Fatalf("Sum = %g, want 5", got)
	}
}

// TestHistogramConcurrent hammers Observe from several goroutines; the
// CAS-maintained sum and the bucket counts must agree with the totals.
// Run with -race to double as the data-race check.
func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("hc_seconds", "hc.", []float64{0.5})
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(0.25)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Fatalf("Count = %d, want %d", got, workers*per)
	}
	if got, want := h.Sum(), 0.25*workers*per; got != want {
		t.Fatalf("Sum = %g, want %g", got, want)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "first.")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Gauge("dup_total", "second.")
}

func TestValidateExpositionRejects(t *testing.T) {
	cases := []struct {
		name, text string
	}{
		{"missing TYPE", "# HELP a_total A.\na_total 1\n"},
		{"missing HELP", "# TYPE a_total counter\na_total 1\n"},
		{"duplicate TYPE", "# HELP a A.\n# TYPE a gauge\n# TYPE a gauge\na 1\n"},
		{"unknown kind", "# HELP a A.\n# TYPE a widget\na 1\n"},
		{"bad value", "# HELP a A.\n# TYPE a gauge\na one\n"},
		{"bad metric name", "# HELP 9a A.\n# TYPE 9a gauge\n9a 1\n"},
		{"bad label", "# HELP a A.\n# TYPE a gauge\na{le=unquoted} 1\n"},
		{"malformed sample", "# HELP a A.\n# TYPE a gauge\n{no name} 1\n"},
		{"empty HELP", "# HELP a\n# TYPE a gauge\na 1\n"},
		{"bucket without family", `a_bucket{le="+Inf"} 1` + "\n"},
	}
	for _, tc := range cases {
		if err := ValidateExposition(tc.text); err == nil {
			t.Errorf("%s: accepted malformed input:\n%s", tc.name, tc.text)
		}
	}
}

// TestValidateExpositionRejectsBadExemplars: the registry renders no
// exemplar annotations, so the validator accepts none — malformed or
// well-formed, on a bucket or anywhere else.
func TestValidateExpositionRejectsBadExemplars(t *testing.T) {
	head := "# HELP h x\n# TYPE h histogram\n"
	cases := []string{
		head + `h_bucket{le="1"} 2 # {trace_id="4bf92f3577b34da6a3ce929d0e0e4736"} 0.5` + "\n", // well-formed
		head + `h_bucket{le="1"} 2 # trace_id 0.5` + "\n",                                      // no braces
		head + `h_bucket{le="1"} 2 # {trace_id=x} 0.5` + "\n",                                  // unquoted label
		head + `h_bucket{le="1"} 2 # {trace_id="x"} y` + "\n",                                  // bad value
		head + `h_sum 2 # {trace_id="x"} 0.5` + "\n",                                           // not a bucket
		"# HELP c x\n# TYPE c counter\n" + `c 2 # {t="x"} 1` + "\n",                            // not a histogram
	}
	for i, text := range cases {
		if err := ValidateExposition(text); err == nil {
			t.Errorf("case %d accepted:\n%s", i, text)
		}
	}
}

func TestValidateExpositionAccepts(t *testing.T) {
	good := strings.Join([]string{
		"# HELP up Scrape health.",
		"# TYPE up gauge",
		"up 1",
		"# HELP lat_seconds Latency.",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.1"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_sum 0.42",
		"lat_seconds_count 3",
		"# HELP inf_gauge Edge values.",
		"# TYPE inf_gauge gauge",
		"inf_gauge +Inf",
		"",
	}, "\n")
	if err := ValidateExposition(good); err != nil {
		t.Fatalf("rejected well-formed input: %v", err)
	}
}

package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/hydrogen-sim/hydrogen/internal/obs"
	"github.com/hydrogen-sim/hydrogen/internal/serve"
	"github.com/hydrogen-sim/hydrogen/internal/system"
	"github.com/hydrogen-sim/hydrogen/internal/workloads"
)

// TestTelemetryEndToEnd is the acceptance path: a job submitted through
// the server yields non-empty telemetry whose points — including the
// final (cap, bw, tok) operating point the policy converged to — are
// identical to a direct in-process run of the same configuration (the
// simulator is deterministic per seed, and observation hooks must not
// perturb it).
func TestTelemetryEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 2, QueueDepth: 8, JournalPath: filepath.Join(t.TempDir(), "journal")})

	cfg := tinyConfig()
	st, code := submit(t, ts.URL, serve.JobRequest{
		Config: &cfg,
		Design: "Hydrogen",
		Combo:  serve.ComboSpec{ID: "C1"},
	})
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit status %d", code)
	}
	waitState(t, ts.URL, st.ID, serve.StateDone)

	// Reference run: same config, same combo, direct through the system
	// layer with only a telemetry hook attached.
	combo, err := workloads.ComboByID("C1")
	if err != nil {
		t.Fatal(err)
	}
	var want []obs.EpochPoint
	if _, err := system.RunDesignObserved(context.Background(), cfg, "Hydrogen", combo, system.Hooks{
		OnTelemetry: func(p obs.EpochPoint) { want = append(want, p) },
	}); err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("reference run produced no telemetry")
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/telemetry")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.Header.Get(obs.HeaderRequestID) == "" {
		t.Error("telemetry response missing X-Request-ID echo")
	}
	var snap serve.TelemetrySnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.ID != st.ID || snap.State != serve.StateDone {
		t.Fatalf("snapshot id/state = %s/%s", snap.ID, snap.State)
	}
	if snap.Dropped != 0 {
		t.Fatalf("snapshot dropped %d points with default ring size", snap.Dropped)
	}
	if len(snap.Points) != len(want) {
		t.Fatalf("server captured %d points, reference run %d", len(snap.Points), len(want))
	}
	for i := range want {
		if snap.Points[i] != want[i] {
			t.Fatalf("point %d differs:\n server %+v\n  local %+v", i, snap.Points[i], want[i])
		}
	}
	final, ref := snap.Points[len(snap.Points)-1], want[len(want)-1]
	if final.CapWays != ref.CapWays || final.BwGroups != ref.BwGroups || final.TokIdx != ref.TokIdx {
		t.Fatalf("final operating point (%d,%d,%d) != converged (%d,%d,%d)",
			final.CapWays, final.BwGroups, final.TokIdx, ref.CapWays, ref.BwGroups, ref.TokIdx)
	}

	// The CSV arm renders the same points as the artifact format.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + st.ID + "/telemetry?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() || sc.Text() != strings.Join(obs.CSVHeader(), ",") {
		t.Fatalf("CSV header = %q", sc.Text())
	}
	rows := 0
	for sc.Scan() {
		rows++
	}
	if rows != len(want) {
		t.Fatalf("CSV has %d rows, want %d", rows, len(want))
	}

	// The finished job's status carries its spans: queue wait, the run
	// itself, and the persistence spans of a journaled daemon — every
	// name the benchmark's per-layer breakdown reads.
	final2 := getJob(t, ts.URL, st.ID)
	names := make(map[string]bool)
	for _, sp := range final2.Spans {
		names[sp.Name] = true
	}
	for _, wantSpan := range []string{"queue", "journal.start", "run", "cache.put", "journal.terminal"} {
		if !names[wantSpan] {
			t.Errorf("job status spans missing %q (have %v)", wantSpan, names)
		}
	}
}

// TestTraceHeaderIgnored: a submission carrying a sampled X-Hydro-Trace
// header is accepted like any other and leaves no trace identity
// behind — not on its status, not on its spans, not in the journal.
func TestTraceHeaderIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	_, ts := newTestServer(t, serve.Options{Workers: 1, JournalPath: path})
	cfg := tinyConfig()
	req := serve.JobRequest{Config: &cfg, Design: "Hydrogen", Combo: serve.ComboSpec{ID: "C1"}}
	trace := obs.NewTraceContext(true)
	if _, code := submitWithHeaders(t, ts.URL, req, map[string]string{obs.HeaderTrace: trace.Header()}); code != http.StatusAccepted {
		t.Fatalf("traced submit: HTTP %d, want 202", code)
	}
	key := jobKey(t, req)
	waitState(t, ts.URL, key, serve.StateDone)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + key)
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		TraceID *string                      `json:"trace_id"`
		Spans   []map[string]json.RawMessage `json:"spans"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.TraceID != nil {
		t.Errorf("status carries trace_id %q", *st.TraceID)
	}
	if len(st.Spans) == 0 {
		t.Fatal("finished job lists no spans")
	}
	for _, sp := range st.Spans {
		for _, field := range []string{"trace_id", "span_id", "parent_id", "node"} {
			if _, ok := sp[field]; ok {
				t.Errorf("span %s carries %q", sp["name"], field)
			}
		}
	}

	// Journal appends are durable before the terminal state is
	// observable, so the file is current by now.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte(trace.TraceID)) {
		t.Error("journal carries the trace ID")
	}
	if bytes.Contains(raw, []byte(`"spans"`)) {
		t.Error("journal carries a span list")
	}
}

// TestTracePlaneRoutesGone: a daemon serves no trace lookup, federated
// cluster view or trace listing, even for a job submitted with a
// sampled X-Hydro-Trace header.
func TestTracePlaneRoutesGone(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1})
	cfg := tinyConfig()
	req := serve.JobRequest{Config: &cfg, Design: "Hydrogen", Combo: serve.ComboSpec{ID: "C1"}}
	trace := obs.NewTraceContext(true)
	if _, code := submitWithHeaders(t, ts.URL, req, map[string]string{obs.HeaderTrace: trace.Header()}); code != http.StatusAccepted {
		t.Fatalf("traced submit: HTTP %d, want 202", code)
	}
	waitState(t, ts.URL, jobKey(t, req), serve.StateDone)
	for _, path := range []string{"/v1/traces/" + trace.TraceID, "/v1/clusterz", "/debug/tracez"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: HTTP %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestTelemetrySSE streams a finished job's telemetry: the ring backlog
// replays as `point` events, then a single `done` event closes the
// stream.
func TestTelemetrySSE(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1})

	cfg := tinyConfig()
	st, _ := submit(t, ts.URL, serve.JobRequest{
		Config: &cfg,
		Design: "Hydrogen",
		Combo:  serve.ComboSpec{ID: "C1"},
	})
	waitState(t, ts.URL, st.ID, serve.StateDone)

	var snap serve.TelemetrySnapshot
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/telemetry")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/v1/jobs/" + st.ID + "/telemetry?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	points, gotDone := 0, false
	var event string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "point":
				var p obs.EpochPoint
				if err := json.Unmarshal([]byte(data), &p); err != nil {
					t.Fatalf("bad point payload: %v", err)
				}
				points++
			case "done":
				var fin serve.JobStatus
				if err := json.Unmarshal([]byte(data), &fin); err != nil {
					t.Fatalf("bad done payload: %v", err)
				}
				if fin.State != serve.StateDone || fin.Result != nil {
					t.Fatalf("done event state=%s result=%v", fin.State, fin.Result != nil)
				}
				gotDone = true
			}
		}
	}
	if !gotDone {
		t.Fatal("stream ended without a done event")
	}
	if points != len(snap.Points) {
		t.Fatalf("streamed %d points, snapshot holds %d", points, len(snap.Points))
	}
}

func TestTelemetryUnknownJob(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/jobs/deadbeef/telemetry")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

// TestMetricsExposition checks the upgraded /metrics endpoint: the
// output is well-formed Prometheus text exposition and carries the
// gauge and histogram families the issue promises, with the latency
// and job histograms actually populated after a run.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1})

	cfg := tinyConfig()
	st, _ := submit(t, ts.URL, serve.JobRequest{
		Config: &cfg,
		Design: "Hydrogen",
		Combo:  serve.ComboSpec{ID: "C1"},
	})
	waitState(t, ts.URL, st.ID, serve.StateDone)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		b.WriteString(sc.Text())
		b.WriteByte('\n')
	}
	text := b.String()

	if err := obs.ValidateExposition(text); err != nil {
		t.Fatalf("/metrics is not valid exposition: %v", err)
	}
	gauges := regexp.MustCompile(`(?m)^# TYPE \S+ gauge$`).FindAllString(text, -1)
	hists := regexp.MustCompile(`(?m)^# TYPE \S+ histogram$`).FindAllString(text, -1)
	if len(gauges) < 4 {
		t.Errorf("only %d gauge families exposed (want >= 4): %v", len(gauges), gauges)
	}
	if len(hists) < 3 {
		t.Errorf("only %d histogram families exposed (want >= 3): %v", len(hists), hists)
	}
	for _, name := range []string{
		"hydroserved_job_seconds", "hydroserved_queue_wait_seconds",
		"hydroserved_epoch_seconds", "hydroserved_http_request_seconds",
	} {
		re := regexp.MustCompile(`(?m)^` + name + `_count (\d+)$`)
		m := re.FindStringSubmatch(text)
		if m == nil {
			t.Errorf("histogram %s missing from /metrics", name)
			continue
		}
		if m[1] == "0" && name != "hydroserved_epoch_seconds" {
			t.Errorf("histogram %s has zero observations after a completed job", name)
		}
	}
	// One completed job, and the per-job telemetry gauge families exist.
	for _, want := range []string{
		"hydroserved_jobs_completed_total 1",
		"# TYPE hydroserved_jobs_queued gauge",
		"# TYPE hydroserved_jobs_running gauge",
		"# TYPE hydroserved_cache_bytes gauge",
		"# TYPE hydroserved_journal_bytes gauge",
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/hydrogen-sim/hydrogen/internal/cluster"
	"github.com/hydrogen-sim/hydrogen/internal/obs"
	"github.com/hydrogen-sim/hydrogen/internal/serve"
	"github.com/hydrogen-sim/hydrogen/internal/system"
	"github.com/hydrogen-sim/hydrogen/internal/workloads"
)

// TestTelemetryEndToEnd is the acceptance path: a job submitted through
// the server yields non-empty telemetry whose points — including the
// final (cap, bw, tok) operating point the policy converged to — are
// identical to a direct in-process run of the same configuration (the
// simulator is deterministic per seed, and the observer must not
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
	// layer with only an observer attached.
	combo, err := workloads.ComboByID("C1")
	if err != nil {
		t.Fatal(err)
	}
	hydro, err := system.ParseDesign(system.DesignHydrogen, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want []obs.EpochPoint
	if _, err := system.RunDesignObserved(context.Background(), cfg, hydro, combo, func(p obs.EpochPoint) {
		want = append(want, p)
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
		t.Error("telemetry response missing X-Request-Id echo")
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

// TestRemovedRoutesGone: a daemon serves no trace lookup, federated
// cluster view, trace listing or per-job event stream, even for a job
// submitted with a sampled X-Hydro-Trace header, and a cluster member
// takes no steal request and serves no /v1/peerz.
func TestRemovedRoutesGone(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1})
	cfg := tinyConfig()
	req := serve.JobRequest{Config: &cfg, Design: "Hydrogen", Combo: serve.ComboSpec{ID: "C1"}}
	trace := obs.NewTraceContext(true)
	if _, code := submitWithHeaders(t, ts.URL, req, map[string]string{obs.HeaderTrace: trace.Header()}); code != http.StatusAccepted {
		t.Fatalf("traced submit: HTTP %d, want 202", code)
	}
	key := jobKey(t, req)
	waitState(t, ts.URL, key, serve.StateDone)
	for _, path := range []string{"/v1/traces/" + trace.TraceID, "/v1/clusterz", "/debug/tracez", "/v1/jobs/" + key + "/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: HTTP %d, want 404", path, resp.StatusCode)
		}
	}

	tc := newTestCluster(t, 2, nil)
	hreq, err := http.NewRequest(http.MethodPost, tc.urls[0]+"/v1/steal", nil)
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set(cluster.HeaderForwarded, tc.ids[1])
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /v1/steal on a cluster member: HTTP %d, want 404", resp.StatusCode)
	}
	if resp, err = http.Get(tc.urls[0] + "/v1/peerz"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/peerz on a cluster member: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestTelemetrySSE: a request for the telemetry stream, by ?stream=1 or
// by Accept: text/event-stream, gets the same bytes as the plain JSON
// snapshot.
func TestTelemetrySSE(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1})

	cfg := tinyConfig()
	st, _ := submit(t, ts.URL, serve.JobRequest{
		Config: &cfg,
		Design: "Hydrogen",
		Combo:  serve.ComboSpec{ID: "C1"},
	})
	waitState(t, ts.URL, st.ID, serve.StateDone)

	get := func(query, accept string) ([]byte, string) {
		t.Helper()
		hreq, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/telemetry"+query, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			hreq.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET telemetry%s: HTTP %d", query, resp.StatusCode)
		}
		return body, resp.Header.Get("Content-Type")
	}
	snap, _ := get("", "")
	var ts0 serve.TelemetrySnapshot
	if err := json.Unmarshal(snap, &ts0); err != nil || len(ts0.Points) == 0 {
		t.Fatalf("snapshot: %d points, err %v", len(ts0.Points), err)
	}
	for _, c := range []struct{ query, accept string }{{"?stream=1", ""}, {"", "text/event-stream"}} {
		body, ct := get(c.query, c.accept)
		if ct != "application/json" {
			t.Errorf("query %q accept %q: Content-Type %q, want application/json", c.query, c.accept, ct)
		}
		if !bytes.Equal(body, snap) {
			t.Errorf("query %q accept %q: body differs from the JSON snapshot", c.query, c.accept)
		}
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
		"# TYPE hydroserved_journal_bytes gauge",
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestEpochsCountTelemetry: a job's progress count is its telemetry
// ring's count, so JobStatus.Epochs equals the telemetry endpoint's
// len(points)+dropped, for a done job and for one canceled mid-run,
// whose count includes the epoch the cancel landed on.
func TestEpochsCountTelemetry(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1})
	check := func(st serve.JobStatus) {
		t.Helper()
		var snap serve.TelemetrySnapshot
		mustGetJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/telemetry", &snap)
		if n := len(snap.Points) + int(snap.Dropped); st.Epochs != n || n == 0 {
			t.Fatalf("%s job reports %d epochs; telemetry holds %d points and dropped %d",
				st.State, st.Epochs, len(snap.Points), snap.Dropped)
		}
	}

	cfg := tinyConfig()
	st, _ := submit(t, ts.URL, serve.JobRequest{Config: &cfg, Design: "Hydrogen", Combo: serve.ComboSpec{ID: "C1"}})
	check(waitState(t, ts.URL, st.ID, serve.StateDone))

	long := tinyConfig()
	long.Cycles = 200_000_000 // far longer than the test will allow
	st, _ = submit(t, ts.URL, serve.JobRequest{Config: &long, Design: "Baseline", Combo: serve.ComboSpec{ID: "C1"}})
	for deadline := time.Now().Add(120 * time.Second); getJob(t, ts.URL, st.ID).Epochs == 0; {
		if time.Now().After(deadline) {
			t.Fatal("long job never took an epoch")
		}
		time.Sleep(10 * time.Millisecond)
	}
	hreq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	check(waitState(t, ts.URL, st.ID, serve.StateCanceled))
}

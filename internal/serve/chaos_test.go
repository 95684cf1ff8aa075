package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hydrogen-sim/hydrogen/internal/faultinject"
	"github.com/hydrogen-sim/hydrogen/internal/journal"
	"github.com/hydrogen-sim/hydrogen/internal/serve"
	"github.com/hydrogen-sim/hydrogen/internal/system"
)

// chaosServer builds a server over explicit options without the
// auto-cleanup Close racing a deliberate Crash.
func chaosServer(t *testing.T, opts serve.Options) (*serve.Server, *httptest.Server) {
	t.Helper()
	srv, err := serve.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return srv, httptest.NewServer(srv)
}

// truncateAfterRecords rewrites the journal at path down to its first n
// records, simulating a crash before the later appends reached disk.
func truncateAfterRecords(t *testing.T, path string, n int) {
	t.Helper()
	var records [][]byte
	_, _, err := journal.Replay(path, func(payload []byte) error {
		records = append(records, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(records) < n {
		t.Fatalf("journal has %d records, want >= %d", len(records), n)
	}
	if err := journal.Rewrite(path, records[:n]); err != nil {
		t.Fatal(err)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func metricsText(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestCrashReplayByteIdentical is the headline chaos scenario: a
// simulated kill -9 lands while a journaled job is running; the next
// daemon over the same journal re-enqueues it without any client
// resubmission and produces a result byte-identical to a clean run. It
// runs once for an alias and once for a spec no alias names (Fig. 7(b)'s
// ideal reconfiguration), which the journal must carry in full.
func TestCrashReplayByteIdentical(t *testing.T) {
	ideal := system.HydrogenOptions{Tokens: true, TokIdx: 3, Climb: true, IdealReconfig: true}
	for _, tc := range []struct {
		name     string
		hydrogen *system.HydrogenOptions
	}{
		{"alias", nil},
		{"ideal reconfigure", &ideal},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			jpath := filepath.Join(dir, "jobs.wal")
			cacheDir := filepath.Join(dir, "cache")
			if err := os.MkdirAll(cacheDir, 0o755); err != nil {
				t.Fatal(err)
			}
			cfg := tinyConfig()
			cfg.Cycles = 2_000_000 // seconds of work: still mid-flight at crash time
			req := serve.JobRequest{Config: &cfg, Design: "Hydrogen", Hydrogen: tc.hydrogen, Combo: serve.ComboSpec{ID: "C1"}}

			srv1, ts1 := chaosServer(t, serve.Options{Workers: 1, JournalPath: jpath, CacheDir: cacheDir})
			st, code := submit(t, ts1.URL, req)
			if code != http.StatusAccepted {
				t.Fatalf("submit: %d", code)
			}
			waitState(t, ts1.URL, st.ID, serve.StateRunning)
			ts1.Close()
			srv1.Crash() // kill -9 equivalent: no terminal records, no spill

			srv2, ts2 := chaosServer(t, serve.Options{Workers: 1, JournalPath: jpath, CacheDir: cacheDir})
			t.Cleanup(func() { ts2.Close(); srv2.Close() })
			if n := srv2.ReplayedJobs(); n != 1 {
				t.Fatalf("replayed %d jobs, want 1", n)
			}
			replayed := getJob(t, ts2.URL, st.ID)
			if !replayed.Replayed {
				t.Fatal("replayed job not marked Replayed")
			}
			if replayed.Design != st.Design || mustJSON(t, replayed.Hydrogen) != mustJSON(t, st.Hydrogen) {
				t.Fatalf("replayed job runs %s %s, submitted %s %s", replayed.Design,
					mustJSON(t, replayed.Hydrogen), st.Design, mustJSON(t, st.Hydrogen))
			}
			done := waitState(t, ts2.URL, st.ID, serve.StateDone)
			if len(done.Result) == 0 {
				t.Fatal("replayed job finished without a result")
			}
			if !strings.Contains(metricsText(t, ts2.URL), "hydroserved_jobs_replayed_total 1") {
				t.Fatal("metrics missing hydroserved_jobs_replayed_total 1")
			}

			// Clean-room reference run: same request on a journal-less daemon.
			_, ts3 := newTestServer(t, serve.Options{Workers: 1})
			st3, _ := submit(t, ts3.URL, req)
			if st3.ID != st.ID {
				t.Fatalf("content address drifted across daemons:\n  %s\n  %s", st.ID, st3.ID)
			}
			clean := waitState(t, ts3.URL, st3.ID, serve.StateDone)
			if !bytes.Equal(done.Result, clean.Result) {
				t.Fatal("replayed result differs from a clean run")
			}
		})
	}
}

// TestCrashBetweenCacheAndJournal: if the crash lands after the result
// reached the cache spill but before the terminal journal record, the
// replay must find the result under the job's content address and
// synthesize done instead of re-running.
func TestCrashBetweenCacheAndJournal(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "jobs.wal")
	cacheDir := filepath.Join(dir, "cache")
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	req := serve.JobRequest{Config: &cfg, Design: "Baseline", Combo: serve.ComboSpec{ID: "C3"}}

	srv1, ts1 := chaosServer(t, serve.Options{Workers: 1, JournalPath: jpath, CacheDir: cacheDir})
	st, _ := submit(t, ts1.URL, req)
	done := waitState(t, ts1.URL, st.ID, serve.StateDone)
	// Spill the result, then rewind the journal to just the submit +
	// start records — exactly the on-disk state of a crash in the window
	// between cache.Put and the terminal append.
	if err := srv1.SpillForTest(); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	srv1.Crash()
	truncateAfterRecords(t, jpath, 2)

	srv2, ts2 := chaosServer(t, serve.Options{Workers: 1, JournalPath: jpath, CacheDir: cacheDir})
	t.Cleanup(func() { ts2.Close(); srv2.Close() })
	if n := srv2.ReplayedJobs(); n != 0 {
		t.Fatalf("replayed %d jobs, want 0 (result was already cached)", n)
	}
	if srv2.SimulationsStarted() != 0 {
		t.Fatal("re-ran a simulation whose result was already on disk")
	}
	got := getJob(t, ts2.URL, st.ID)
	if got.State != serve.StateDone {
		t.Fatalf("synthesized job state %q, want done", got.State)
	}
	if !bytes.Equal(got.Result, done.Result) {
		t.Fatal("synthesized result differs from the original")
	}
}

// TestPanicQuarantine: a fault-injected panic inside the simulation is
// recovered into a failed job (twice), the ID is quarantined at the
// threshold, other jobs keep completing, and the quarantine survives a
// restart via the journal.
func TestPanicQuarantine(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	opts := serve.Options{Workers: 1, QuarantineAfter: 2, JournalPath: filepath.Join(dir, "jobs.wal")}

	srv1, ts1 := chaosServer(t, opts)
	cfg := tinyConfig()
	poison := serve.JobRequest{Config: &cfg, Design: "Hydrogen", Combo: serve.ComboSpec{ID: "C1"}}

	faultinject.Set(faultinject.PanicOnEpoch, 2, 0)
	for attempt := 1; attempt <= 2; attempt++ {
		st, code := submit(t, ts1.URL, poison)
		if code != http.StatusAccepted {
			t.Fatalf("attempt %d: submit %d", attempt, code)
		}
		end := waitState(t, ts1.URL, st.ID, serve.StateFailed)
		if !strings.Contains(end.Error, "worker panic") || !strings.Contains(end.Error, "panic-on-epoch") {
			t.Fatalf("attempt %d: error %q does not carry the panic", attempt, end.Error)
		}
	}

	// noteFailure runs just after the job turns failed; poll briefly for
	// the quarantine to take effect rather than racing it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, code := submit(t, ts1.URL, poison)
		if code == http.StatusUnprocessableEntity {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("poison job never quarantined (last submit: %d)", code)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Other work is unaffected: the pool is alive and the failpoint is
	// exhausted.
	other := poison
	other.Seed = 42
	st, code := submit(t, ts1.URL, other)
	if code != http.StatusAccepted {
		t.Fatalf("healthy job after quarantine: %d", code)
	}
	waitState(t, ts1.URL, st.ID, serve.StateDone)

	text := metricsText(t, ts1.URL)
	for _, want := range []string{
		"hydroserved_worker_panics_total 2",
		"hydroserved_jobs_quarantined_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}

	ts1.Close()
	srv1.Close()

	// The failure count rides the journal: a restarted daemon refuses the
	// poison job immediately, without replaying it.
	srv2, ts2 := chaosServer(t, opts)
	t.Cleanup(func() { ts2.Close(); srv2.Close() })
	if n := srv2.ReplayedJobs(); n != 0 {
		t.Fatalf("restart replayed %d jobs, want 0", n)
	}
	if _, code := submit(t, ts2.URL, poison); code != http.StatusUnprocessableEntity {
		t.Fatalf("poison job after restart: %d, want 422", code)
	}
}

// TestDeadlineExceeded: a per-job timeout stops an oversized run at an
// epoch boundary and surfaces the distinct deadline_exceeded state.
func TestDeadlineExceeded(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1})
	cfg := tinyConfig()
	cfg.Cycles = 2_000_000_000 // minutes of work against a 200ms budget
	req := serve.JobRequest{
		Config:  &cfg,
		Design:  "Baseline",
		Combo:   serve.ComboSpec{ID: "C1"},
		Timeout: serve.Duration(200 * time.Millisecond),
	}
	st, code := submit(t, ts.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	end := waitState(t, ts.URL, st.ID, serve.StateDeadline)
	if !strings.Contains(end.Error, "deadline exceeded") {
		t.Fatalf("deadline error %q", end.Error)
	}
	if end.Timeout != serve.Duration(200*time.Millisecond) {
		t.Fatalf("status timeout %v", time.Duration(end.Timeout))
	}
	if !strings.Contains(metricsText(t, ts.URL), "hydroserved_jobs_deadline_exceeded_total 1") {
		t.Fatal("metrics missing hydroserved_jobs_deadline_exceeded_total 1")
	}
}

// TestNegativeTimeoutRejected: a negative timeout is a 400, not a job
// that can never run.
func TestNegativeTimeoutRejected(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"design":"Baseline","combo":"C1","timeout":"-5s"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative timeout: %d, want 400", resp.StatusCode)
	}
}

// TestCorruptSpillRejected: a torn or bit-rotted spill file is removed
// and treated as a miss — the job re-runs rather than serving garbage.
func TestCorruptSpillRejected(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyConfig()
	req := serve.JobRequest{Config: &cfg, Design: "Baseline", Combo: serve.ComboSpec{ID: "C2"}}

	srv1, ts1 := chaosServer(t, serve.Options{Workers: 1, CacheDir: dir})
	st, _ := submit(t, ts1.URL, req)
	first := waitState(t, ts1.URL, st.ID, serve.StateDone)
	if err := srv1.SpillForTest(); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	srv1.Close()

	spill := filepath.Join(dir, st.ID+".json")
	if _, err := os.Stat(spill); err != nil {
		t.Fatalf("spill file missing: %v", err)
	}
	if err := os.WriteFile(spill, []byte(`{"cycles": 12, "torn`), 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, ts2 := newTestServer(t, serve.Options{Workers: 1, CacheDir: dir})
	st2, code := submit(t, ts2.URL, req)
	if code != http.StatusAccepted || st2.Cached {
		t.Fatalf("corrupt spill served as a hit: code=%d cached=%v", code, st2.Cached)
	}
	redone := waitState(t, ts2.URL, st2.ID, serve.StateDone)
	if !bytes.Equal(redone.Result, first.Result) {
		t.Fatal("re-run after corrupt spill differs from the original result")
	}
	if srv2.SimulationsStarted() != 1 {
		t.Fatalf("re-run started %d simulations, want 1", srv2.SimulationsStarted())
	}
	if _, err := os.Stat(spill); !os.IsNotExist(err) {
		t.Fatalf("corrupt spill file not removed (stat err: %v)", err)
	}
	if !strings.Contains(metricsText(t, ts2.URL), "hydroserved_cache_corrupt_total 1") {
		t.Fatal("metrics missing hydroserved_cache_corrupt_total 1")
	}
}

// TestJournalAppendFailureRejectsSubmit: when the durable submit record
// cannot be written, the job must be refused (503 + Retry-After), and
// the next attempt — disk recovered — accepted.
func TestJournalAppendFailureRejectsSubmit(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	_, ts := newTestServer(t, serve.Options{Workers: 1, JournalPath: filepath.Join(dir, "jobs.wal")})
	cfg := tinyConfig()
	body := `{"design":"Baseline","combo":"C1","config":` + mustJSON(t, cfg) + `}`

	faultinject.Set(faultinject.JournalAppendErr, 1, 0)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit with failing journal: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	st, code := submit(t, ts.URL, serve.JobRequest{Config: &cfg, Design: "Baseline", Combo: serve.ComboSpec{ID: "C1"}})
	if code != http.StatusAccepted {
		t.Fatalf("retry after journal recovery: %d", code)
	}
	waitState(t, ts.URL, st.ID, serve.StateDone)
}

// rawSubmit posts a prepared request without failing the test on
// non-2xx statuses, so chaos storms can count rejections.
func rawSubmit(url string, req serve.JobRequest) (id string, code int, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", 0, err
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		var st serve.JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return "", resp.StatusCode, err
		}
		id = st.ID
	}
	return id, resp.StatusCode, nil
}

// TestGroupCommitAckIsDurable is the journal's durability proof: a
// storm of concurrent submissions races for the journal, some appends
// fail, and the crash that follows must recover exactly the acked set
// — every 202 replays, no 503 leaves a ghost record.
func TestGroupCommitAckIsDurable(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	jpath := filepath.Join(dir, "jobs.wal")

	srv1, ts1 := chaosServer(t, serve.Options{Workers: 1, JournalPath: jpath})
	blocker := tinyConfig()
	blocker.Cycles = 40_000_000 // keeps the lone worker busy past the crash
	bst, code := submit(t, ts1.URL, serve.JobRequest{Config: &blocker, Design: "Hydrogen", Combo: serve.ComboSpec{ID: "C1"}})
	if code != http.StatusAccepted {
		t.Fatalf("blocker submit: %d", code)
	}
	waitState(t, ts1.URL, bst.ID, serve.StateRunning)

	// Three of the sixteen concurrent submissions draw an append
	// failure; each charge rejects exactly one caller.
	faultinject.Set(faultinject.JournalAppendErr, 3, 0)
	const n = 16
	type outcome struct {
		id   string
		code int
		err  error
	}
	outs := make([]outcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := tinyConfig()
			req := serve.JobRequest{Config: &cfg, Design: "Baseline", Combo: serve.ComboSpec{ID: "C2"}, Seed: int64(i + 1)}
			outs[i].id, outs[i].code, outs[i].err = rawSubmit(ts1.URL, req)
		}(i)
	}
	wg.Wait()
	var acked []string
	rejected := 0
	for i, o := range outs {
		if o.err != nil {
			t.Fatalf("submit %d: %v", i, o.err)
		}
		switch o.code {
		case http.StatusAccepted:
			acked = append(acked, o.id)
		case http.StatusServiceUnavailable:
			rejected++
		default:
			t.Fatalf("submit %d: status %d, want 202 or 503", i, o.code)
		}
	}
	if rejected != 3 || len(acked) != n-3 {
		t.Fatalf("%d acked / %d rejected, want %d/3", len(acked), rejected, n-3)
	}

	ts1.Close()
	srv1.Crash() // kill -9: whatever was acked must already be on disk

	srv2, ts2 := chaosServer(t, serve.Options{Workers: 1, JournalPath: jpath})
	t.Cleanup(func() { ts2.Close(); srv2.Close() })
	if got, want := srv2.ReplayedJobs(), int64(1+len(acked)); got != want {
		t.Fatalf("replayed %d jobs, want %d (blocker + every acked submit, nothing else)", got, want)
	}
	for _, id := range acked {
		st := getJob(t, ts2.URL, id)
		if !st.Replayed {
			t.Fatalf("acked job %s came back unreplayed (state %q)", id[:12], st.State)
		}
	}
}

// TestGroupCommitFailStopAfterTornBatch: a torn write fails its own
// append AND all later appends (fail-stop) — because replay stops at
// the torn frame, acking anything behind it would ack a record
// recovery cannot see. Everything acked before the tear still replays.
func TestGroupCommitFailStopAfterTornBatch(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	jpath := filepath.Join(dir, "jobs.wal")

	srv1, ts1 := chaosServer(t, serve.Options{Workers: 1, JournalPath: jpath})
	blocker := tinyConfig()
	blocker.Cycles = 40_000_000
	bst, code := submit(t, ts1.URL, serve.JobRequest{Config: &blocker, Design: "Hydrogen", Combo: serve.ComboSpec{ID: "C1"}})
	if code != http.StatusAccepted {
		t.Fatalf("blocker submit: %d", code)
	}
	waitState(t, ts1.URL, bst.ID, serve.StateRunning)

	// Wave 1: cleanly acked submissions.
	var wave1 []string
	for i := 0; i < 8; i++ {
		cfg := tinyConfig()
		req := serve.JobRequest{Config: &cfg, Design: "Baseline", Combo: serve.ComboSpec{ID: "C3"}, Seed: int64(100 + i)}
		id, code, err := rawSubmit(ts1.URL, req)
		if err != nil || code != http.StatusAccepted {
			t.Fatalf("wave1 submit %d: code=%d err=%v", i, code, err)
		}
		wave1 = append(wave1, id)
	}

	// Wave 2: the next append tears mid-frame; it and every submission
	// after it must be refused.
	faultinject.Set(faultinject.JournalTornWrite, 1, 0)
	var wg sync.WaitGroup
	codes := make([]int, 8)
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := tinyConfig()
			req := serve.JobRequest{Config: &cfg, Design: "Baseline", Combo: serve.ComboSpec{ID: "C2"}, Seed: int64(200 + i)}
			_, codes[i], errs[i] = rawSubmit(ts1.URL, req)
		}(i)
	}
	wg.Wait()
	for i := 0; i < 8; i++ {
		if errs[i] != nil {
			t.Fatalf("wave2 submit %d: %v", i, errs[i])
		}
		if codes[i] != http.StatusServiceUnavailable {
			t.Fatalf("wave2 submit %d: status %d, want 503 after the journal tore", i, codes[i])
		}
	}
	cfg := tinyConfig()
	if _, code, err := rawSubmit(ts1.URL, serve.JobRequest{Config: &cfg, Design: "Baseline", Combo: serve.ComboSpec{ID: "C1"}, Seed: 999}); err != nil || code != http.StatusServiceUnavailable {
		t.Fatalf("submit after fail-stop: code=%d err=%v, want 503", code, err)
	}

	ts1.Close()
	srv1.Crash()

	srv2, ts2 := chaosServer(t, serve.Options{Workers: 1, JournalPath: jpath})
	t.Cleanup(func() { ts2.Close(); srv2.Close() })
	if got, want := srv2.ReplayedJobs(), int64(1+len(wave1)); got != want {
		t.Fatalf("replayed %d jobs, want %d (blocker + wave 1)", got, want)
	}
	for _, id := range wave1 {
		if st := getJob(t, ts2.URL, id); !st.Replayed {
			t.Fatalf("wave1 job %s came back unreplayed", id[:12])
		}
	}
}

// TestReadyzLifecycle: readiness goes 503 (with Retry-After) when the
// drain starts, while liveness stays 200 throughout.
func TestReadyzLifecycle(t *testing.T) {
	srv, ts := newTestServer(t, serve.Options{Workers: 1})
	check := func(path string, want int) *http.Response {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s: %d, want %d", path, resp.StatusCode, want)
		}
		return resp
	}
	check("/livez", http.StatusOK)
	check("/readyz", http.StatusOK)

	done := make(chan struct{})
	go func() { srv.Close(); close(done) }()
	<-done
	check("/livez", http.StatusOK)
	resp := check("/readyz", http.StatusServiceUnavailable)
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("unready /readyz without Retry-After")
	}
}

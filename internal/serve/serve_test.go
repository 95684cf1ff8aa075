package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hydrogen-sim/hydrogen/internal/serve"
	"github.com/hydrogen-sim/hydrogen/internal/system"
	"github.com/hydrogen-sim/hydrogen/internal/workloads"
)

// tinyConfig mirrors the root package's test config: small enough that
// one simulation takes well under a second.
func tinyConfig() system.Config {
	cfg := system.Quick()
	cfg.Hybrid.FastCapacityBytes = 4 << 20
	cfg.Hybrid.RemapCacheBytes = 16 << 10
	cfg.LLC.SizeBytes = 256 << 10
	cfg.EpochLen = 100_000
	cfg.Cycles = 500_000
	return cfg
}

func newTestServer(t *testing.T, opts serve.Options) (*serve.Server, *httptest.Server) {
	t.Helper()
	srv, err := serve.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

func submit(t *testing.T, base string, req serve.JobRequest) (serve.JobStatus, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.JobStatus
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

func getJob(t *testing.T, base, id string) serve.JobStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitState(t *testing.T, base, id string, want ...string) serve.JobStatus {
	t.Helper()
	// Generous: a ~2s simulation can take far longer when the whole
	// suite runs under -race on a loaded host.
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		st := getJob(t, base, id)
		for _, w := range want {
			if st.State == w {
				return st
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %v", id, want)
	return serve.JobStatus{}
}

// TestSingleflightAndCacheHit is the core acceptance test: two
// concurrent identical submissions run exactly one simulation, and a
// resubmission after completion is a cache hit returning byte-identical
// results.
func TestSingleflightAndCacheHit(t *testing.T) {
	srv, ts := newTestServer(t, serve.Options{Workers: 2})
	cfg := tinyConfig()
	req := serve.JobRequest{Config: &cfg, Design: "Hydrogen", Combo: serve.ComboSpec{ID: "C1"}}

	const n = 4
	var wg sync.WaitGroup
	statuses := make([]serve.JobStatus, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], codes[i] = submit(t, ts.URL, req)
		}(i)
	}
	wg.Wait()

	for i := 1; i < n; i++ {
		if statuses[i].ID != statuses[0].ID {
			t.Fatalf("identical submissions got different job IDs:\n  %s\n  %s", statuses[0].ID, statuses[i].ID)
		}
	}
	if got := srv.SimulationsStarted(); got != 1 {
		t.Fatalf("%d concurrent identical submissions started %d simulations, want 1", n, got)
	}

	done := waitState(t, ts.URL, statuses[0].ID, serve.StateDone)
	if len(done.Result) == 0 {
		t.Fatal("done job has no result")
	}
	var res system.Results
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatalf("result not a system.Results: %v", err)
	}
	if res.Cycles != cfg.Cycles {
		t.Fatalf("result simulated %d cycles, want %d", res.Cycles, cfg.Cycles)
	}

	// Resubmission after completion: cache hit, no new simulation,
	// byte-identical result.
	st, code := submit(t, ts.URL, req)
	if code != http.StatusOK || !st.Cached {
		t.Fatalf("resubmission: code=%d cached=%v, want 200 cached", code, st.Cached)
	}
	if !bytes.Equal(st.Result, done.Result) {
		t.Fatal("cache hit returned different bytes than the original result")
	}
	if got := srv.SimulationsStarted(); got != 1 {
		t.Fatalf("resubmission started a simulation (total %d)", got)
	}

	// The fully expanded spelling of C1 (as the server canonicalizes it)
	// must hash to the same job as the bare ID.
	inline := req
	inline.Combo = getJob(t, ts.URL, st.ID).Combo
	st2, _ := submit(t, ts.URL, inline)
	if st2.ID != st.ID {
		t.Fatalf("inline combo spelling minted a new job:\n  %s\n  %s", st.ID, st2.ID)
	}
}

// TestCancelRunningJob: DELETE lands at the next epoch boundary and the
// job reports canceled, not done.
func TestCancelRunningJob(t *testing.T) {
	srv, ts := newTestServer(t, serve.Options{Workers: 1})
	cfg := tinyConfig()
	cfg.Cycles = 200_000_000 // far longer than the test will allow
	req := serve.JobRequest{Config: &cfg, Design: "Baseline", Combo: serve.ComboSpec{ID: "C1"}}

	st, _ := submit(t, ts.URL, req)
	waitState(t, ts.URL, st.ID, serve.StateRunning)

	hreq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	end := waitState(t, ts.URL, st.ID, serve.StateCanceled)
	if end.Error == "" {
		t.Fatal("canceled job has no error message")
	}
	_ = srv
}

// TestQueueFullRejects: with one worker busy and a depth-1 queue, a
// third submission is rejected with 429 and Retry-After: 1.
func TestQueueFullRejects(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1, QueueDepth: 1})
	long := tinyConfig()
	long.Cycles = 200_000_000
	mk := func(seed int64) serve.JobRequest {
		cfg := long
		cfg.Seed = seed
		return serve.JobRequest{Config: &cfg, Design: "Baseline", Combo: serve.ComboSpec{ID: "C1"}}
	}

	st1, _ := submit(t, ts.URL, mk(1))
	waitState(t, ts.URL, st1.ID, serve.StateRunning) // worker occupied
	_, code2 := submit(t, ts.URL, mk(2))             // sits in the queue
	if code2 != http.StatusAccepted {
		t.Fatalf("second submit: %d", code2)
	}
	_, code3, hdr := submitHdr(t, ts.URL, mk(3), nil)
	if code3 != http.StatusTooManyRequests {
		t.Fatalf("third submit: %d, want 429", code3)
	}
	if ra := hdr.Get("Retry-After"); ra != "1" {
		t.Fatalf("queue-full Retry-After = %q, want \"1\"", ra)
	}
}

// TestDrainRefusesAndFinishes: during a drain new submissions get 503;
// a running job is canceled once the drain deadline expires, and Drain
// returns.
func TestDrainRefusesAndFinishes(t *testing.T) {
	srv, ts := newTestServer(t, serve.Options{Workers: 1})
	cfg := tinyConfig()
	cfg.Cycles = 200_000_000
	req := serve.JobRequest{Config: &cfg, Design: "Baseline", Combo: serve.ComboSpec{ID: "C1"}}

	st, _ := submit(t, ts.URL, req)
	waitState(t, ts.URL, st.ID, serve.StateRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(ctx) }()

	// The draining flag flips before Drain blocks on the workers; poll
	// until submissions are refused.
	other := req
	other.Seed = 99
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, code := submit(t, ts.URL, other)
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("submissions never refused during drain")
		}
		time.Sleep(5 * time.Millisecond)
	}

	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Drain did not return after its context expired")
	}
	end := getJob(t, ts.URL, st.ID)
	if end.State != serve.StateCanceled {
		t.Fatalf("running job state after expired drain: %q, want canceled", end.State)
	}
}

// TestWarmRestartFromSpillDir: a drained daemon leaves its results on
// disk; a fresh daemon over the same directory answers the identical
// submission from the spill file, byte-identically, without simulating.
func TestWarmRestartFromSpillDir(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyConfig()
	req := serve.JobRequest{Config: &cfg, Design: "Hydrogen", Combo: serve.ComboSpec{ID: "C2"}}

	srv1, ts1 := newTestServer(t, serve.Options{Workers: 1, CacheDir: dir})
	st, _ := submit(t, ts1.URL, req)
	first := waitState(t, ts1.URL, st.ID, serve.StateDone)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv1.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	srv2, ts2 := newTestServer(t, serve.Options{Workers: 1, CacheDir: dir})
	st2, code := submit(t, ts2.URL, req)
	if code != http.StatusOK || !st2.Cached {
		t.Fatalf("warm restart submit: code=%d cached=%v", code, st2.Cached)
	}
	if !bytes.Equal(st2.Result, first.Result) {
		t.Fatal("spilled result differs from the original")
	}
	if srv2.SimulationsStarted() != 0 {
		t.Fatal("warm restart ran a simulation")
	}
}

// TestBadSubmissions: malformed payloads get 400 with a JSON error.
func TestBadSubmissions(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1})
	for _, body := range []string{
		`{`,              // not JSON
		`{"combo":"C1"}`, // missing design
		`{"design":"NoSuchDesign","combo":"C1"}`,
		`{"design":"Baseline","combo":"C99"}`, // unknown combo
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%s: error body not JSON: %v", body, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || e["error"] == "" {
			t.Fatalf("%s: code=%d error=%q", body, resp.StatusCode, e["error"])
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d", resp.StatusCode)
	}
}

// TestListingsAndMetrics: the discovery and observability endpoints.
func TestListingsAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1})
	cfg := tinyConfig()
	req := serve.JobRequest{Config: &cfg, Design: "Baseline", Combo: serve.ComboSpec{ID: "C1"}}
	st, _ := submit(t, ts.URL, req)
	waitState(t, ts.URL, st.ID, serve.StateDone)
	if re, code := submit(t, ts.URL, req); code != http.StatusOK || !re.Cached {
		t.Fatalf("resubmit: HTTP %d cached=%v, want 200 from the cache", code, re.Cached)
	}

	var designs []string
	mustGetJSON(t, ts.URL+"/v1/designs", &designs)
	if len(designs) == 0 {
		t.Fatal("no designs listed")
	}
	var combos []string
	mustGetJSON(t, ts.URL+"/v1/combos", &combos)
	if len(combos) != 12 {
		t.Fatalf("%d combos listed, want 12", len(combos))
	}
	var jobs []serve.JobStatus
	mustGetJSON(t, ts.URL+"/v1/jobs", &jobs)
	if len(jobs) != 1 || jobs[0].ID != st.ID {
		t.Fatalf("job listing: %+v", jobs)
	}
	// The listing carries statuses only: the done job's result is
	// served by GET /v1/jobs/{id}.
	if jobs[0].State != serve.StateDone || jobs[0].Result != nil {
		t.Fatalf("listed done job: state %q, %d result bytes; want done, no result", jobs[0].State, len(jobs[0].Result))
	}
	var health map[string]any
	mustGetJSON(t, ts.URL+"/livez", &health)
	if health["ok"] != true {
		t.Fatalf("livez: %v", health)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"hydroserved_jobs_submitted_total 2",
		"hydroserved_jobs_completed_total 1",
		"hydroserved_cache_hits_total 1",
		"# TYPE hydroserved_jobs_running gauge",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}

func mustGetJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// pinnedCacheKeys holds, per system.ModelVersion, the literal content
// addresses of two stock configs. They pin the wire form of a job: a
// change that moves or renames config types must leave them as they
// are, and only a model-version bump adds entries under the new version.
var pinnedCacheKeys = map[string]map[string]string{
	"1": {
		"Quick Hydrogen C1": "1a74be1b0b61884b192582242ea67a4b25cafe952758d7b04d5a395f165eda69",
		"Paper Baseline C5": "a23e2a3a0f9f2c9d5e9acdf6e00212695650c3c78fc098e162f460e465d6c1b9",
	},
}

// TestCacheKeyStability: the content address ignores per-run workload
// assignment fields and weight spellings that canonicalize identically,
// and the stock configs hash to their pinned addresses.
func TestCacheKeyStability(t *testing.T) {
	pinned, ok := pinnedCacheKeys[system.ModelVersion]
	if !ok {
		t.Fatalf("no pinned cache keys for model version %q", system.ModelVersion)
	}
	for name, got := range map[string]string{
		"Quick Hydrogen C1": serve.CacheKey(system.Quick(), "Hydrogen", serve.ComboSpec{ID: "C1"}),
		"Paper Baseline C5": serve.CacheKey(system.Paper(), "Baseline", serve.ComboSpec{ID: "C5"}),
	} {
		if got != pinned[name] {
			t.Errorf("%s: cache key %s, pinned %s", name, got, pinned[name])
		}
	}

	cfg := tinyConfig()
	spec := serve.ComboSpec{ID: "C1", CPU: []string{"a"}, GPU: "b"}
	k1 := serve.CacheKey(cfg, "Hydrogen", spec)

	withProfiles := cfg
	withProfiles.CPUProfiles = []string{"x", "y"}
	withProfiles.GPUProfile = "z"
	if k2 := serve.CacheKey(withProfiles, "Hydrogen", spec); k2 != k1 {
		t.Fatal("cache key depends on per-run profile assignments")
	}

	withWeights := cfg
	withWeights.WeightCPU, withWeights.WeightGPU = 12, 1
	if k3 := serve.CacheKey(withWeights, "Hydrogen", spec); k3 != k1 {
		t.Fatal("explicit default weights change the cache key")
	}

	other := cfg
	other.Cycles++
	if k4 := serve.CacheKey(other, "Hydrogen", spec); k4 == k1 {
		t.Fatal("different cycles share a cache key")
	}
	if k5 := serve.CacheKey(cfg, "Baseline", spec); k5 == k1 {
		t.Fatal("different designs share a cache key")
	}
	if serve.CacheKey(cfg, "Hydrogen-DP", spec) == k1 {
		t.Fatal("Hydrogen-DP and Hydrogen share a cache key")
	}
	if serve.CacheKeyUnderModel("0", cfg, "Hydrogen", spec) == k1 {
		t.Fatal("the model version is not part of the cache key")
	}

	// An alias and its spelled-out spec are one job, and the daemon
	// addresses it exactly as CacheKey does.
	_, ts := newTestServer(t, serve.Options{Workers: 1})
	c1 := tableCombo(t, "C1")
	for design, spelled := range map[string]system.HydrogenOptions{
		"Hydrogen":    {Tokens: true, TokIdx: 3, Climb: true},
		"Hydrogen-DP": {PhaseEpochs: 50},
	} {
		alias, _ := submit(t, ts.URL, serve.JobRequest{Config: &cfg, Design: design, Combo: serve.ComboSpec{ID: "C1"}})
		full, _ := submit(t, ts.URL, serve.JobRequest{Config: &cfg, Design: "Hydrogen", Hydrogen: &spelled, Combo: serve.ComboSpec{ID: "C1"}})
		if want := serve.CacheKey(cfg, design, c1); alias.ID != want || full.ID != want {
			t.Fatalf("%s: alias %s, spelled out %s, CacheKey %s", design, short(alias.ID), short(full.ID), short(want))
		}
		if full.Design != design || full.Hydrogen != nil {
			t.Fatalf("%s spelled out reports design %q options %v", design, full.Design, full.Hydrogen)
		}
	}
}

func short(id string) string { return id[:min(12, len(id))] }

// tableCombo is the canonical spec a bare Table II combo ID resolves to.
func tableCombo(t *testing.T, id string) serve.ComboSpec {
	t.Helper()
	c, err := workloads.ComboByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return serve.ComboSpec{ID: c.ID, CPU: c.CPU, GPU: c.GPU}
}

// TestSpillFromOtherModelMisses: a spill file written by a binary that
// simulates another model version is never served as this model's
// result; the identical request simulates afresh.
func TestSpillFromOtherModelMisses(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyConfig()
	req := serve.JobRequest{Config: &cfg, Design: "Baseline", Combo: serve.ComboSpec{ID: "C2"}}

	srv1, ts1 := newTestServer(t, serve.Options{Workers: 1, CacheDir: dir})
	st, _ := submit(t, ts1.URL, req)
	waitState(t, ts1.URL, st.ID, serve.StateDone)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv1.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	// Stage the spill the same request leaves under model version "0".
	old := serve.CacheKeyUnderModel("0", cfg, "Baseline", tableCombo(t, "C2"))
	if err := os.Rename(filepath.Join(dir, st.ID+".json"), filepath.Join(dir, old+".json")); err != nil {
		t.Fatal(err)
	}

	srv2, ts2 := newTestServer(t, serve.Options{Workers: 1, CacheDir: dir})
	st2, code := submit(t, ts2.URL, req)
	if code != http.StatusAccepted || st2.Cached || st2.ID != st.ID {
		t.Fatalf("submit over another model's spill: code=%d cached=%v id %s, want 202 for %s", code, st2.Cached, short(st2.ID), short(st.ID))
	}
	waitState(t, ts2.URL, st2.ID, serve.StateDone)
	if n := srv2.SimulationsStarted(); n != 1 {
		t.Fatalf("started %d simulations, want 1", n)
	}
}

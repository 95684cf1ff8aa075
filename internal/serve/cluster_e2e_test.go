package serve_test

// Three-node in-process cluster tests: single simulation cluster-wide,
// identical ETag/result bytes from every member, a saturated owner
// keeping its own jobs, the relay's 503 while a job's owner is down,
// and one request ID across a relay hop.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hydrogen-sim/hydrogen/internal/chash"
	"github.com/hydrogen-sim/hydrogen/internal/cluster"
	"github.com/hydrogen-sim/hydrogen/internal/faultinject"
	"github.com/hydrogen-sim/hydrogen/internal/obs"
	"github.com/hydrogen-sim/hydrogen/internal/serve"
	"github.com/hydrogen-sim/hydrogen/internal/workloads"
)

// testCluster is n hydroserved daemons wired into one peer group.
// Listeners are reserved before the servers are built — every member
// needs the full URL list up front.
type testCluster struct {
	ids     []string
	urls    []string
	opts    []serve.Options
	servers []*serve.Server
	https   []*httptest.Server
}

func newTestCluster(t *testing.T, n int, optsFn func(i int, o *serve.Options)) *testCluster {
	t.Helper()
	tc := &testCluster{}
	for i := 0; i < n; i++ {
		ts := httptest.NewUnstartedServer(http.NotFoundHandler())
		tc.https = append(tc.https, ts)
		tc.urls = append(tc.urls, "http://"+ts.Listener.Addr().String())
		tc.ids = append(tc.ids, fmt.Sprintf("n%d", i))
	}
	members := make([]cluster.Member, n)
	for i := range members {
		members[i] = cluster.Member{ID: tc.ids[i], URL: tc.urls[i]}
	}
	for i := 0; i < n; i++ {
		opts := serve.Options{
			Workers:     2,
			JournalPath: filepath.Join(t.TempDir(), "journal"),
			Cluster: &cluster.Config{
				Self:         tc.ids[i],
				Members:      append([]cluster.Member(nil), members...),
				ProxyTimeout: 10 * time.Second,
			},
		}
		if optsFn != nil {
			optsFn(i, &opts)
		}
		srv, err := serve.New(opts)
		if err != nil {
			t.Fatal(err)
		}
		tc.opts = append(tc.opts, opts)
		tc.servers = append(tc.servers, srv)
		tc.https[i].Config.Handler = srv
		tc.https[i].Start()
	}
	t.Cleanup(func() {
		for i := range tc.servers {
			tc.https[i].Close()
			tc.servers[i].Close()
		}
	})
	return tc
}

// kill is the in-process kill -9 of member i: journal detached with no
// terminal records, listener and connections gone.
func (tc *testCluster) kill(i int) {
	tc.servers[i].Crash()
	tc.https[i].CloseClientConnections()
	tc.https[i].Close()
}

// restart boots member i again on its journal and at its old address,
// as a supervisor restarting the killed process would.
func (tc *testCluster) restart(t *testing.T, i int) {
	t.Helper()
	ln, err := net.Listen("tcp", strings.TrimPrefix(tc.urls[i], "http://"))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(tc.opts[i])
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(srv)
	ts.Listener.Close()
	ts.Listener = ln
	ts.Start()
	tc.servers[i], tc.https[i] = srv, ts
}

// jobKey computes the content address the cluster routes by, so tests
// can pick fronts and owners deliberately.
func jobKey(t *testing.T, req serve.JobRequest) string {
	t.Helper()
	combo, err := workloads.ComboByID(req.Combo.ID)
	if err != nil {
		t.Fatal(err)
	}
	cfg := *req.Config
	if req.Cycles > 0 {
		cfg.Cycles = req.Cycles
	}
	if req.Seed != 0 {
		cfg.Seed = req.Seed
	}
	return serve.CacheKey(cfg, req.Design, serve.ComboSpec{ID: combo.ID, CPU: combo.CPU, GPU: combo.GPU})
}

func (tc *testCluster) ownerIdx(t *testing.T, key string) int {
	t.Helper()
	owner, ok := chash.OwnerString(key, tc.ids)
	if !ok {
		t.Fatal("no owner")
	}
	for i, id := range tc.ids {
		if id == owner {
			return i
		}
	}
	t.Fatalf("owner %s not in cluster", owner)
	return -1
}

// metric scrapes one un-labeled series from a daemon's /metrics.
func metric(t *testing.T, base, name string) int64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (-?\d+)$`)
	m := re.FindSubmatch(text)
	if m == nil {
		t.Fatalf("metric %s absent from %s/metrics", name, base)
	}
	v, err := strconv.ParseInt(string(m[1]), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// submitWithHeaders is submit with extra request headers.
func submitWithHeaders(t *testing.T, base string, req serve.JobRequest, hdr map[string]string) (serve.JobStatus, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		hreq.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(hreq)
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

// getRaw fetches a job and returns the status plus response metadata.
func getRaw(t *testing.T, base, id string) (serve.JobStatus, string, http.Header) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s/v1/jobs/%s: HTTP %d: %s", base, id, resp.StatusCode, body)
	}
	var st serve.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st, resp.Header.Get("ETag"), resp.Header
}

// TestClusterSingleSimulation is the tentpole acceptance test: a job
// submitted through a non-owner runs exactly once cluster-wide, every
// peer serves it under the same ETag with identical result bytes, and
// repeat submissions through ANY front are cache hits.
func TestClusterSingleSimulation(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	cfg := tinyConfig()
	req := serve.JobRequest{Config: &cfg, Design: "Hydrogen", Combo: serve.ComboSpec{ID: "C1"}}
	key := jobKey(t, req)
	owner := tc.ownerIdx(t, key)
	front := (owner + 1) % 3

	st, code := submit(t, tc.urls[front], req)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit via non-owner: HTTP %d", code)
	}
	if st.ID != key {
		t.Fatalf("job ID %s != computed key %s", st.ID, key)
	}
	waitState(t, tc.urls[front], key, serve.StateDone)

	// Exactly one simulation across the whole tier.
	var started int64
	for _, srv := range tc.servers {
		started += srv.SimulationsStarted()
	}
	if started != 1 {
		for i, srv := range tc.servers {
			t.Logf("peer %s (owner=%v front=%v): started=%d",
				tc.ids[i], i == owner, i == front, srv.SimulationsStarted())
		}
		t.Fatalf("cluster ran %d simulations, want 1", started)
	}

	// Every peer serves the job under the same strong validator with
	// byte-identical result content.
	var etags [3]string
	var results [3]string
	for i, u := range tc.urls {
		st, etag, _ := getRaw(t, u, key)
		if st.State != serve.StateDone {
			t.Fatalf("peer %s: state %s", tc.ids[i], st.State)
		}
		etags[i] = etag
		results[i] = string(st.Result)
	}
	want := `"` + key + `"`
	for i := 0; i < 3; i++ {
		if etags[i] != want {
			t.Fatalf("peer %s ETag %q, want %q", tc.ids[i], etags[i], want)
		}
		if results[i] == "" || results[i] != results[0] {
			t.Fatalf("peer %s result bytes differ from peer %s", tc.ids[i], tc.ids[0])
		}
	}

	// Resubmission through every front is a hit (200, cached) — no
	// second simulation anywhere.
	for i, u := range tc.urls {
		st, code := submit(t, u, req)
		if code != http.StatusOK {
			t.Fatalf("resubmit via %s: HTTP %d, want 200", tc.ids[i], code)
		}
		if !st.Cached {
			t.Fatalf("resubmit via %s not marked cached", tc.ids[i])
		}
	}
	started = 0
	for _, srv := range tc.servers {
		started += srv.SimulationsStarted()
	}
	if started != 1 {
		t.Fatalf("after resubmissions the cluster ran %d simulations, want 1", started)
	}
	// The front relayed its first submission and its resubmission.
	if n := metric(t, tc.urls[front], "hydro_cluster_proxied_submits_total"); n != 2 {
		t.Fatalf("front relayed %d submissions, want 2", n)
	}
}

// TestClusterRelayOwnerDown is the relay's failure contract: while a
// job's owner cannot be reached, another member answers a POST and a
// GET for it with 503 + Retry-After (never 404 or 202), starts no
// simulation and journals nothing; once the owner restarts on its
// journal, the same GET through that member returns the job done, with
// the owner's ETag and result bytes.
func TestClusterRelayOwnerDown(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	cfg := tinyConfig()
	req := serve.JobRequest{Config: &cfg, Design: "Hydrogen", Combo: serve.ComboSpec{ID: "C2"}}
	key := jobKey(t, req)
	owner := tc.ownerIdx(t, key)
	front := (owner + 1) % 3

	// Hold the owner's worker so the kill lands mid-job and the
	// restarted owner replays the job from its journal.
	faultinject.Set(faultinject.SlowWorker, 1, 2000)
	defer faultinject.Reset()
	if _, code := submit(t, tc.urls[front], req); code != http.StatusAccepted {
		t.Fatalf("submit via non-owner: HTTP %d, want 202", code)
	}
	waitState(t, tc.urls[front], key, serve.StateRunning)
	tc.kill(owner)

	journalBefore, err := os.ReadFile(tc.opts[front].JournalPath)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, try := range []struct {
		name string
		do   func() (*http.Response, error)
	}{
		{"POST", func() (*http.Response, error) {
			return http.Post(tc.urls[front]+"/v1/jobs", "application/json", bytes.NewReader(body))
		}},
		{"GET", func() (*http.Response, error) { return http.Get(tc.urls[front] + "/v1/jobs/" + key) }},
	} {
		resp, err := try.do()
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s via %s with owner %s down: HTTP %d, Retry-After %q; want 503 with Retry-After",
				try.name, tc.ids[front], tc.ids[owner], resp.StatusCode, resp.Header.Get("Retry-After"))
		}
	}
	if n := tc.servers[front].SimulationsStarted(); n != 0 {
		t.Fatalf("front started %d simulations for a job it does not own, want 0", n)
	}
	journalAfter, err := os.ReadFile(tc.opts[front].JournalPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(journalAfter, journalBefore) {
		t.Fatalf("front's journal grew from %d to %d bytes while relaying", len(journalBefore), len(journalAfter))
	}

	tc.restart(t, owner)
	final := waitState(t, tc.urls[front], key, serve.StateDone)
	want, wantTag, _ := getRaw(t, tc.urls[owner], key)
	got, gotTag, _ := getRaw(t, tc.urls[front], key)
	if len(want.Result) == 0 || !bytes.Equal(got.Result, want.Result) || !bytes.Equal(final.Result, want.Result) {
		t.Fatal("front relays other result bytes than the restarted owner's")
	}
	if gotTag != wantTag || gotTag != `"`+key+`"` {
		t.Fatalf("front ETag %q, owner ETag %q; want both the content address", gotTag, wantTag)
	}
	if n := tc.servers[front].SimulationsStarted(); n != 0 {
		t.Fatalf("front started %d simulations, want 0", n)
	}
}

// TestClusterSaturatedOwnerKeepsItsJobs saturates one owner (one
// worker, held by a failpoint) with several jobs it owns and requires
// that they wait for that worker: every job reaches done on its owner,
// every member serves it under the same ETag and bytes, and no other
// member runs a simulation.
func TestClusterSaturatedOwnerKeepsItsJobs(t *testing.T) {
	tc := newTestCluster(t, 3, func(i int, o *serve.Options) {
		o.Workers = 1
	})
	cfg := tinyConfig()

	// Find a set of jobs all owned by the same member by varying the
	// seed; the first seed's owner defines the target.
	base := serve.JobRequest{Config: &cfg, Design: "Hydrogen", Combo: serve.ComboSpec{ID: "C1"}}
	var reqs []serve.JobRequest
	var keys []string
	owner := -1
	for seed := int64(1); len(reqs) < 3 && seed < 200; seed++ {
		r := base
		r.Seed = seed
		k := jobKey(t, r)
		o := tc.ownerIdx(t, k)
		if owner == -1 {
			owner = o
		}
		if o == owner {
			reqs = append(reqs, r)
			keys = append(keys, k)
		}
	}
	if len(reqs) < 3 {
		t.Fatal("could not find 3 same-owner seeds")
	}

	// Hold the owner's only worker so jobs pile up in its queue.
	faultinject.Set(faultinject.SlowWorker, 1, 1500)
	defer faultinject.Reset()

	for _, r := range reqs {
		if _, code := submit(t, tc.urls[owner], r); code != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d, want 202", code)
		}
	}
	for _, k := range keys {
		st := waitState(t, tc.urls[owner], k, serve.StateDone)
		if len(st.Result) == 0 {
			t.Fatalf("job %.12s done without result", k)
		}
	}

	for _, k := range keys {
		want, wantTag, _ := getRaw(t, tc.urls[owner], k)
		for i, u := range tc.urls {
			st, etag, _ := getRaw(t, u, k)
			if etag != wantTag || !bytes.Equal(st.Result, want.Result) {
				t.Fatalf("peer %s serves job %.12s under ETag %q with other bytes than its owner (%q)", tc.ids[i], k, etag, wantTag)
			}
		}
	}
	for i, srv := range tc.servers {
		if i == owner {
			continue
		}
		if n := srv.SimulationsStarted(); n != 0 {
			t.Fatalf("non-owner %s ran %d simulations, want 0", tc.ids[i], n)
		}
	}
}

// syncWriter serializes concurrent slog writes into one buffer so the
// test can read the accumulated log text race-free.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestClusterRequestIDPropagation: a submission carrying an X-Request-Id
// through a non-owner appears under that SAME request ID in both the
// front's and the owner's access logs, so one grep correlates the hop
// chain. A submission sent without one is logged by the owner under
// the ID the front minted and echoed, not under a second one.
func TestClusterRequestIDPropagation(t *testing.T) {
	logs := make([]*syncWriter, 3)
	tc := newTestCluster(t, 3, func(i int, o *serve.Options) {
		logs[i] = &syncWriter{}
		o.AccessLog = true
		o.Logger = obs.NewLogger(logs[i], true, slog.LevelInfo)
	})
	// waitLogged waits for id to reach the access logs of members; the
	// access line lands after the handler returns.
	waitLogged := func(id string, members ...int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			missing := -1
			for _, i := range members {
				if !strings.Contains(logs[i].String(), id) {
					missing = i
					break
				}
			}
			if missing < 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("request ID %s missing from member %d's access log", id, missing)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	cfg := tinyConfig()
	req := serve.JobRequest{Config: &cfg, Design: "Hydrogen", Combo: serve.ComboSpec{ID: "C1"}}
	key := jobKey(t, req)
	owner := tc.ownerIdx(t, key)
	front := (owner + 1) % 3

	const reqID = "reqid-e2e-regression-0001"
	if _, code := submitWithHeaders(t, tc.urls[front], req, map[string]string{obs.HeaderRequestID: reqID}); code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit: HTTP %d", code)
	}
	waitState(t, tc.urls[front], key, serve.StateDone)
	waitLogged(reqID, front, owner)

	// No ID on the way in: the front mints one, echoes it, and forwards
	// that same ID to the owner.
	req.Seed = 7
	key = jobKey(t, req)
	owner = tc.ownerIdx(t, key)
	front = (owner + 1) % 3
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(tc.urls[front]+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit without ID: HTTP %d", resp.StatusCode)
	}
	minted := resp.Header.Get(obs.HeaderRequestID)
	if minted == "" {
		t.Fatal("front echoed no request ID")
	}
	waitState(t, tc.urls[front], key, serve.StateDone)
	waitLogged(minted, front, owner)
}

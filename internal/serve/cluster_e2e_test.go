package serve_test

// Three-node in-process cluster tests: single simulation cluster-wide,
// identical ETag/result bytes from every peer, journal-backed failover
// when the owner is killed mid-job, work stealing, the degraded /readyz
// surface, and one request ID across a proxy hop.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
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
				Self:          tc.ids[i],
				Members:       append([]cluster.Member(nil), members...),
				ProbeInterval: 50 * time.Millisecond,
				ProbeTimeout:  2 * time.Second,
				ProxyTimeout:  10 * time.Second,
				StealInterval: -1, // stealing off unless a test opts in
			},
		}
		if optsFn != nil {
			optsFn(i, &opts)
		}
		srv, err := serve.New(opts)
		if err != nil {
			t.Fatal(err)
		}
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
			t.Logf("peer %s (owner=%v front=%v): enqueued=%d promoted=%d stolen_in=%d",
				tc.ids[i], i == owner, i == front, srv.SimulationsStarted(),
				metric(t, tc.urls[i], "hydro_cluster_promoted_jobs_total"),
				metric(t, tc.urls[i], "hydro_cluster_steals_total"))
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
	// The front proxied at least one submission and filled its cache
	// from the peer response.
	if n := metric(t, tc.urls[front], "hydro_cluster_proxied_submits_total"); n < 1 {
		t.Fatalf("front proxied %d submissions, want >=1", n)
	}
	if n := metric(t, tc.urls[front], "hydro_cluster_peer_fills_total"); n < 1 {
		t.Fatalf("front recorded %d peer fills, want >=1", n)
	}
}

// TestClusterFailoverOwnerKill kills the owner mid-job (journal
// detached without terminal records, listener closed — the in-process
// kill -9) and asserts the front promotes the forwarded job into its
// own journal-backed queue and finishes it, and that /readyz reports
// the cluster degraded.
func TestClusterFailoverOwnerKill(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	cfg := tinyConfig()
	req := serve.JobRequest{Config: &cfg, Design: "Hydrogen", Combo: serve.ComboSpec{ID: "C2"}}
	key := jobKey(t, req)
	owner := tc.ownerIdx(t, key)
	front := (owner + 1) % 3

	// Hold the owner's worker for a while so the kill lands mid-job.
	faultinject.Set(faultinject.SlowWorker, 1, 2000)
	defer faultinject.Reset()

	st, code := submit(t, tc.urls[front], req)
	if code != http.StatusAccepted {
		t.Fatalf("submit via non-owner: HTTP %d, want 202", code)
	}
	if st.ID != key {
		t.Fatalf("job ID %s != key %s", st.ID, key)
	}
	waitState(t, tc.urls[front], key, serve.StateRunning)

	// kill -9 the owner: journal detached with no terminal record,
	// listener gone.
	tc.servers[owner].Crash()
	tc.https[owner].CloseClientConnections()
	tc.https[owner].Close()

	// Polling through the front must chase the ranking, find nobody,
	// promote the forwarded job locally, and finish it.
	final := waitState(t, tc.urls[front], key, serve.StateDone)
	if len(final.Result) == 0 {
		t.Fatal("failover result empty")
	}
	if n := metric(t, tc.urls[front], "hydro_cluster_promoted_jobs_total"); n != 1 {
		t.Fatalf("front promoted %d jobs, want 1", n)
	}
	if got := tc.servers[front].SimulationsStarted(); got != 1 {
		t.Fatalf("front started %d simulations, want 1 (the promoted re-run)", got)
	}
	_, etag, _ := getRaw(t, tc.urls[front], key)
	if etag != `"`+key+`"` {
		t.Fatalf("failover ETag %q, want the content address", etag)
	}

	// /readyz stays 200 but reports the dead peer.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(tc.urls[front] + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Ready    bool                        `json:"ready"`
			Degraded bool                        `json:"degraded"`
			Peers    map[string]cluster.PeerView `json:"peers"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || !body.Ready {
			t.Fatalf("degraded readyz must stay 200/ready, got %d %+v", resp.StatusCode, body)
		}
		if body.Degraded {
			if v, ok := body.Peers[tc.ids[owner]]; !ok || v.Alive {
				t.Fatalf("dead owner %s not reported down: %+v", tc.ids[owner], body.Peers)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("front never reported the cluster degraded")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestClusterWorkStealing saturates one owner (one worker, held by a
// failpoint) with several jobs it owns and asserts idle peers pull the
// queued ones over /v1/steal and the owner mirrors their results.
func TestClusterWorkStealing(t *testing.T) {
	tc := newTestCluster(t, 3, func(i int, o *serve.Options) {
		o.Workers = 1
		o.Cluster.StealInterval = 50 * time.Millisecond
		o.Cluster.StealThreshold = 1
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

	var stolen int64
	for i, u := range tc.urls {
		if i == owner {
			continue
		}
		stolen += metric(t, u, "hydro_cluster_steals_total")
	}
	if stolen < 1 {
		t.Fatalf("idle peers stole %d jobs, want >=1", stolen)
	}
	// A reclaim/re-steal round can legitimately hand a job out more than
	// once, so the owner's hand-out count bounds the adopt count.
	if n := metric(t, tc.urls[owner], "hydro_cluster_stolen_total"); n < stolen {
		t.Fatalf("owner handed out %d jobs but peers adopted %d", n, stolen)
	}
}

// TestClusterPeerzGossip sanity-checks the gossip surface: every
// member reports itself and its view of the others.
func TestClusterPeerzGossip(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	deadline := time.Now().Add(5 * time.Second)
	for _, u := range tc.urls {
		for {
			resp, err := http.Get(u + "/v1/peerz")
			if err != nil {
				t.Fatal(err)
			}
			var pz cluster.PeerzPayload
			err = json.NewDecoder(resp.Body).Decode(&pz)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !pz.Ready || pz.ID == "" {
				t.Fatalf("peerz from %s: %+v", u, pz)
			}
			allSeen := len(pz.Peers) == 2
			for _, v := range pz.Peers {
				if !v.Alive || v.LastSeen.IsZero() {
					allSeen = false
				}
			}
			if allSeen {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("peerz from %s never saw both peers alive: %+v", u, pz.Peers)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	// Metrics gauges agree.
	for _, u := range tc.urls {
		if n := metric(t, u, "hydro_cluster_peers"); n != 3 {
			t.Fatalf("hydro_cluster_peers = %d, want 3", n)
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

// TestClusterRequestIDPropagation: a submission carrying an X-Request-ID
// through a non-owner appears under that SAME request ID in both the
// front's and the owner's access logs, so one grep correlates the hop
// chain.
func TestClusterRequestIDPropagation(t *testing.T) {
	logs := make([]*syncWriter, 3)
	tc := newTestCluster(t, 3, func(i int, o *serve.Options) {
		logs[i] = &syncWriter{}
		o.AccessLog = true
		o.Logger = obs.NewLogger(logs[i], true, slog.LevelInfo)
	})
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

	// The access line lands after the handler returns; give each log a
	// beat to flush.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if strings.Contains(logs[front].String(), reqID) && strings.Contains(logs[owner].String(), reqID) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("request ID %s missing from access logs: front has it %v, owner has it %v",
				reqID, strings.Contains(logs[front].String(), reqID), strings.Contains(logs[owner].String(), reqID))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

package serve_test

// Back-pressure and resilience tests: the one FIFO queue's submit
// contract, circuit-breaker peer routing, refused adoption on a full
// queue, disk watermarks, and live journal compaction.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/hydrogen-sim/hydrogen/internal/cluster"
	"github.com/hydrogen-sim/hydrogen/internal/faultinject"
	"github.com/hydrogen-sim/hydrogen/internal/serve"
)

// submitHdr posts a job with extra headers and returns the decoded
// status (2xx only), the HTTP code, and the response headers.
func submitHdr(t *testing.T, base string, req serve.JobRequest, hdr map[string]string) (serve.JobStatus, int, http.Header) {
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
	if resp.StatusCode/100 == 2 {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode, resp.Header
}

// TestPriorityAndDeadlineIgnored: the run queue is one FIFO, so a
// "priority" key is an unknown key like any other and X-Hydro-Deadline
// is not read. Such a submission is accepted and runs to done under the
// same content address, ETag and result bytes as the bare request.
func TestPriorityAndDeadlineIgnored(t *testing.T) {
	cfg := tinyConfig()
	req := serve.JobRequest{Config: &cfg, Design: "Hydrogen", Combo: serve.ComboSpec{ID: "C1"}}
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	// run posts body to a fresh daemon, so neither run is a cache hit of
	// the other, and returns the finished status and its ETag.
	run := func(name string, body []byte, hdr map[string]string) (serve.JobStatus, string) {
		t.Helper()
		_, ts := newTestServer(t, serve.Options{Workers: 1})
		hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range hdr {
			hreq.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		var st serve.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted || err != nil {
			t.Fatalf("%s submit: HTTP %d (decode err %v), want 202", name, resp.StatusCode, err)
		}
		done := waitState(t, ts.URL, st.ID, serve.StateDone, serve.StateFailed, serve.StateCanceled, serve.StateDeadline)
		if done.State != serve.StateDone {
			t.Fatalf("%s job ended %s (%s), want done", name, done.State, done.Error)
		}
		get, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		get.Body.Close()
		return done, get.Header.Get("ETag")
	}

	bare, bareTag := run("bare", raw, nil)
	withPrio := append([]byte(`{"priority":"urgent",`), raw[1:]...)
	got, gotTag := run("priority+deadline", withPrio, map[string]string{"X-Hydro-Deadline": "1"})
	if got.ID != bare.ID {
		t.Fatalf("job ID %s, want the bare request's %s", got.ID, bare.ID)
	}
	if gotTag == "" || gotTag != bareTag {
		t.Fatalf("ETag %q, want the bare request's %q", gotTag, bareTag)
	}
	if !bytes.Equal(got.Result, bare.Result) {
		t.Fatal("result bytes differ from the bare request's")
	}
}

// TestClusterBreakerTripsOnDeadPeer takes node 2 out of service two
// ways — refused (crashed, listener closed) and hung (every request
// held behind its gate, the SIGSTOPped-process case) — and requires
// that the front keeps accepting every submission while its breaker
// for node 2 trips open and short-circuits; a hung peer that comes
// back closes the breaker again on the next half-open probe.
func TestClusterBreakerTripsOnDeadPeer(t *testing.T) {
	const dead, front = 2, 0
	for _, tt := range []struct {
		name string
		// stop takes node dead out of service and returns the function
		// that brings it back, or nil when it stays down.
		stop func(tc *testCluster) (resume func())
	}{
		{"refused", func(tc *testCluster) func() {
			tc.servers[dead].Crash()
			tc.https[dead].CloseClientConnections()
			tc.https[dead].Close()
			return nil
		}},
		{"hung", func(tc *testCluster) func() {
			tc.gates[dead].close()
			return tc.gates[dead].open
		}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			tc := newTestCluster(t, 3, func(i int, o *serve.Options) {
				o.Cluster.ProbeTimeout = 500 * time.Millisecond
			})
			cfg := tinyConfig()
			// ownedByDead returns the next n jobs, from seed on, that
			// rendezvous onto the dead node, so every submit through the
			// front attempts (or short-circuits) the dead peer first.
			seed := int64(0)
			ownedByDead := func(n int) []serve.JobRequest {
				var owned []serve.JobRequest
				for len(owned) < n {
					seed++
					c := cfg
					c.Seed = seed
					r := serve.JobRequest{Config: &c, Design: "Hydrogen", Combo: serve.ComboSpec{ID: "C1"}}
					if tc.ownerIdx(t, jobKey(t, r)) == dead {
						owned = append(owned, r)
					}
				}
				return owned
			}
			submitAll := func(reqs []serve.JobRequest) {
				t.Helper()
				for i, r := range reqs {
					if _, code := submit(t, tc.urls[front], r); code != http.StatusAccepted && code != http.StatusOK {
						t.Fatalf("submit %d with node %d down: HTTP %d, want 202/200", i, dead, code)
					}
				}
			}

			resume := tt.stop(tc)
			waitPeerDown(t, tc.urls[front], tc.ids[dead])

			// Every submit succeeds despite the dead owner: the first few
			// burn a failed call each, then the breaker opens and the rest
			// skip the wire entirely.
			submitAll(ownedByDead(5))
			if n := metric(t, tc.urls[front], "hydro_cluster_breaker_opens_total"); n != 1 {
				t.Fatalf("breaker_opens_total = %d, want 1", n)
			}
			if n := metric(t, tc.urls[front], "hydro_cluster_breaker_short_circuits_total"); n < 1 {
				t.Fatalf("breaker_short_circuits_total = %d, want >= 1", n)
			}
			if n := metric(t, tc.urls[front], "hydro_cluster_breakers_open"); n != 1 {
				t.Fatalf("breakers_open gauge = %d, want 1", n)
			}
			// Node 1's breaker is untouched by node 2's death: peers isolate.
			if n := metric(t, tc.urls[1], "hydro_cluster_breaker_opens_total"); n != 0 {
				t.Fatalf("bystander breaker_opens_total = %d, want 0", n)
			}
			if resume == nil {
				return
			}

			// Breaker state only advances on routed calls: keep submitting
			// until the half-open probe (after the 5s open window) reaches
			// the resumed peer and closes the breaker.
			resume()
			deadline := time.Now().Add(10 * time.Second)
			for metric(t, tc.urls[front], "hydro_cluster_breakers_open") != 0 {
				if time.Now().After(deadline) {
					t.Fatal("breaker still open 10s after the peer resumed")
				}
				submitAll(ownedByDead(1))
				time.Sleep(250 * time.Millisecond)
			}
		})
	}
}

// waitPeerDown polls base's /readyz until it reports peer id not alive.
func waitPeerDown(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Peers map[string]cluster.PeerView `json:"peers"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := body.Peers[id]; ok && !v.Alive {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s/readyz never marked %s alive:false: %+v", base, id, body.Peers)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestClusterPromoteQueueFullNeutralized is the satellite regression
// test: when a daemon adopts a forwarded job after its owner dies but
// cannot enqueue it (queue full), the adoption must fail OBSERVABLY —
// 503 to the poller, neutralizing cancel record in the journal — and a
// restart must not resurrect the job.
func TestClusterPromoteQueueFullNeutralized(t *testing.T) {
	defer faultinject.Reset()
	journals := make([]string, 2)
	tc := newTestCluster(t, 2, func(i int, o *serve.Options) {
		o.Workers = 1
		o.QueueDepth = 1
		journals[i] = o.JournalPath
	})
	cfg := tinyConfig()
	mkReq := func(seed int64) serve.JobRequest {
		c := cfg
		c.Seed = seed
		return serve.JobRequest{Config: &c, Design: "Hydrogen", Combo: serve.ComboSpec{ID: "C1"}}
	}

	// Orient: the target job's owner is one node; the other is the front
	// that proxies it and will be asked to adopt it later.
	target := mkReq(1)
	targetKey := jobKey(t, target)
	owner := tc.ownerIdx(t, targetKey)
	front := 1 - owner

	// Fill jobs owned by the FRONT keep its single worker busy and its
	// one-deep queue full.
	var fill []serve.JobRequest
	for seed := int64(50); len(fill) < 2; seed++ {
		r := mkReq(seed)
		if tc.ownerIdx(t, jobKey(t, r)) == front {
			fill = append(fill, r)
		}
	}

	// Two slow-worker charges: one for the front's worker (fill #1), one
	// for the owner's worker (the target), so both stay in flight.
	faultinject.Set(faultinject.SlowWorker, 2, 8000)

	f1, code := submit(t, tc.urls[front], fill[0])
	if code != http.StatusAccepted {
		t.Fatalf("fill 1: HTTP %d", code)
	}
	waitState(t, tc.urls[front], f1.ID, serve.StateRunning)

	st, code := submit(t, tc.urls[front], target)
	if code != http.StatusAccepted {
		t.Fatalf("target submit via front: HTTP %d", code)
	}
	waitState(t, tc.urls[front], st.ID, serve.StateRunning)

	if _, code = submit(t, tc.urls[front], fill[1]); code != http.StatusAccepted {
		t.Fatalf("fill 2: HTTP %d", code)
	}

	// Kill the owner mid-run.
	tc.servers[owner].Crash()
	tc.https[owner].CloseClientConnections()
	tc.https[owner].Close()

	// Polling the target through the front now walks to the dead owner,
	// fails, and tries local adoption — which must be refused honestly:
	// the queue is full, so the poller gets 503 + Retry-After, never a
	// silent drop.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(tc.urls[front] + "/v1/jobs/" + targetKey)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("failed adoption 503 carries no Retry-After")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("front never reported failed adoption (last HTTP %d)", resp.StatusCode)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Crash the front and replay its journal standalone: the fill jobs
	// (no terminal record) resurrect; the refused adoption must NOT —
	// its submit record was neutralized by the cancel record.
	tc.servers[front].Crash()
	tc.https[front].Close()
	faultinject.Reset() // replayed jobs should run at full speed

	srv, err := serve.New(serve.Options{Workers: 1, QueueDepth: 4, JournalPath: journals[front]})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if n := srv.ReplayedJobs(); n != 2 {
		t.Fatalf("replay resurrected %d jobs, want 2 (the fills, not the refused adoption)", n)
	}
}

func TestDiskWatermarks(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	_, ts := newTestServer(t, serve.Options{
		Workers:           1,
		JournalPath:       filepath.Join(dir, "journal"),
		CacheDir:          filepath.Join(dir, "spill"),
		DiskLowBytes:      1 << 20,
		WatermarkInterval: 10 * time.Millisecond,
	})
	if err := os.MkdirAll(filepath.Join(dir, "spill"), 0o755); err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()

	// A finished job, written through to disk, gives the pressure path
	// something to prune.
	st, code := submit(t, ts.URL, serve.JobRequest{Config: &cfg, Design: "Hydrogen", Combo: serve.ComboSpec{ID: "C1"}})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	waitState(t, ts.URL, st.ID, serve.StateDone)

	// Fake 1 byte free for every check until reset: the daemon must go
	// critical, prune spills, and refuse durable submits with 503. Wait
	// for a watermark tick to see the fake reading before submitting.
	faultinject.Set(faultinject.DiskCritical, 10_000, 1)
	deadline := time.Now().Add(5 * time.Second)
	for metric(t, ts.URL, "hydroserved_disk_free_bytes") != 1 {
		if time.Now().After(deadline) {
			t.Fatal("watermark loop never observed the injected free-space reading")
		}
		time.Sleep(10 * time.Millisecond)
	}
	cfg2 := cfg
	cfg2.Seed = 7
	req2 := serve.JobRequest{Config: &cfg2, Design: "Hydrogen", Combo: serve.ComboSpec{ID: "C1"}}
	_, code, hdr := submitHdr(t, ts.URL, req2, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit while disk-critical: HTTP %d, want 503", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("disk-critical 503 carries no Retry-After")
	}
	if n := metric(t, ts.URL, "hydroserved_disk_low_rejects_total"); n < 1 {
		t.Fatalf("disk_low_rejects_total = %d, want >= 1", n)
	}
	if n := metric(t, ts.URL, "hydroserved_cache_spill_prunes_total"); n < 1 {
		t.Fatalf("cache_spill_prunes_total = %d, want >= 1 (spill pruned under pressure)", n)
	}

	// Real free space again: hysteresis clears the flag and durable
	// submits resume.
	faultinject.Reset()
	deadline = time.Now().Add(5 * time.Second)
	for {
		stx, code, _ := submitHdr(t, ts.URL, req2, nil)
		if code == http.StatusAccepted {
			waitState(t, ts.URL, stx.ID, serve.StateDone)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never recovered from disk-critical (last HTTP %d)", code)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestJournalCompactionAtSizeCap(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal")
	srv, ts := newTestServer(t, serve.Options{
		Workers:           2,
		JournalPath:       path,
		MaxJournalBytes:   4096,
		WatermarkInterval: 10 * time.Millisecond,
	})
	cfg := tinyConfig()
	for seed := int64(1); seed <= 4; seed++ {
		c := cfg
		c.Seed = seed
		st, code := submit(t, ts.URL, serve.JobRequest{Config: &c, Design: "Hydrogen", Combo: serve.ComboSpec{ID: "C1"}})
		if code != http.StatusAccepted {
			t.Fatalf("submit seed %d: HTTP %d", seed, code)
		}
		waitState(t, ts.URL, st.ID, serve.StateDone)
	}

	deadline := time.Now().Add(5 * time.Second)
	for metric(t, ts.URL, "hydroserved_journal_compactions_total") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("journal never compacted past MaxJournalBytes")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Nothing was queued or running at compaction time, so the rewritten
	// journal holds no live submits: it must be far under the cap.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > 4096 {
		t.Fatalf("compacted journal is %d bytes, want <= cap", fi.Size())
	}
	// The daemon keeps serving and journaling after the swap.
	c := cfg
	c.Seed = 99
	st, code := submit(t, ts.URL, serve.JobRequest{Config: &c, Design: "Hydrogen", Combo: serve.ComboSpec{ID: "C1"}})
	if code != http.StatusAccepted {
		t.Fatalf("post-compaction submit: HTTP %d", code)
	}
	waitState(t, ts.URL, st.ID, serve.StateDone)
	_ = srv
}

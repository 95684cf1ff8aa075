package serve_test

// Back-pressure and resilience tests: the one FIFO queue's submit
// contract, disk watermarks, and live journal compaction.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

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

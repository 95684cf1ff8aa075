package serve_test

// Back-pressure tests: the one FIFO queue's submit contract.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

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

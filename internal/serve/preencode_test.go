package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/hydrogen-sim/hydrogen/internal/serve"
	"github.com/hydrogen-sim/hydrogen/internal/system"
	"github.com/hydrogen-sim/hydrogen/internal/workloads"
)

// rawFetch performs one request and returns the response (with the
// body fully read and closed) plus the body bytes.
func rawFetch(t *testing.T, method, url string, hdr map[string]string, body []byte) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestPreEncodedByteIdentity proves the memoized hit path is a pure
// encoding optimization: the bytes served for a done job — GET and
// POST-hit variants — are exactly what the old marshal-per-request
// path produced, stable across repeated requests, and correctly
// framed (Content-Length, strong ETag).
func TestPreEncodedByteIdentity(t *testing.T) {
	srv, ts := newTestServer(t, serve.Options{Workers: 1})
	cfg := tinyConfig()
	req := serve.JobRequest{Config: &cfg, Design: "Baseline", Combo: serve.ComboSpec{ID: "C1"}}
	st, code := submit(t, ts.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	waitState(t, ts.URL, st.ID, serve.StateDone)

	jobURL := ts.URL + "/v1/jobs/" + st.ID
	resp1, body1 := rawFetch(t, http.MethodGet, jobURL, nil, nil)
	resp2, body2 := rawFetch(t, http.MethodGet, jobURL, nil, nil)
	if !bytes.Equal(body1, body2) {
		t.Fatal("repeated GETs of a done job returned different bytes")
	}
	wantETag := `"` + st.ID + `"`
	if got := resp1.Header.Get("ETag"); got != wantETag {
		t.Fatalf("ETag %q, want %q", got, wantETag)
	}
	if got := resp1.Header.Get("Content-Length"); got != strconv.Itoa(len(body1)) {
		t.Fatalf("Content-Length %q for %d-byte body", got, len(body1))
	}
	legacy, ok := srv.LegacyStatusJSON(st.ID, false)
	if !ok {
		t.Fatal("legacy oracle could not rebuild the status")
	}
	if !bytes.Equal(body1, legacy) {
		t.Fatalf("pre-encoded GET differs from the legacy encoding:\n got %s\nwant %s", body1, legacy)
	}
	_ = resp2

	// POST resubmission: same job, cache-hit variant.
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	respHit, bodyHit := rawFetch(t, http.MethodPost, ts.URL+"/v1/jobs", nil, payload)
	if respHit.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: %d, want 200", respHit.StatusCode)
	}
	if !bytes.Contains(bodyHit, []byte(`"cached":true`)) {
		t.Fatalf("hit response not marked cached: %s", bodyHit)
	}
	legacyHit, ok := srv.LegacyStatusJSON(st.ID, true)
	if !ok {
		t.Fatal("legacy oracle (hit variant) could not rebuild the status")
	}
	if !bytes.Equal(bodyHit, legacyHit) {
		t.Fatalf("pre-encoded hit differs from the legacy encoding:\n got %s\nwant %s", bodyHit, legacyHit)
	}
	if respHit.Header.Get("ETag") != wantETag {
		t.Fatal("POST hit response missing the job's ETag")
	}

	// A second identical POST body takes the body-hash fast path.
	respHit2, bodyHit2 := rawFetch(t, http.MethodPost, ts.URL+"/v1/jobs", nil, payload)
	if respHit2.StatusCode != http.StatusOK || !bytes.Equal(bodyHit2, bodyHit) {
		t.Fatal("fast-path hit diverged from the first hit response")
	}
	if !strings.Contains(metricsText(t, ts.URL), "hydroserved_submit_fastpath_total") {
		t.Fatal("metrics missing hydroserved_submit_fastpath_total")
	}
}

// TestListingsPreEncoded: /v1/designs and /v1/combos serve bytes
// precomputed at startup, identical to marshaling the live values.
func TestListingsPreEncoded(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1})
	wantDesigns, err := json.Marshal(system.Designs())
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(workloads.Combos))
	for i, c := range workloads.Combos {
		ids[i] = c.ID
	}
	wantCombos, err := json.Marshal(ids)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path string
		want []byte
	}{
		{"/v1/designs", append(wantDesigns, '\n')},
		{"/v1/combos", append(wantCombos, '\n')},
	} {
		resp, body := rawFetch(t, http.MethodGet, ts.URL+tc.path, nil, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", tc.path, resp.StatusCode)
		}
		if !bytes.Equal(body, tc.want) {
			t.Fatalf("GET %s:\n got %s\nwant %s", tc.path, body, tc.want)
		}
		if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(tc.want)) {
			t.Fatalf("GET %s: Content-Length %q for %d bytes", tc.path, got, len(tc.want))
		}
	}
}

// TestConditionalGetSemantics pins the ETag contract: only matching
// If-None-Match values on GETs of terminal jobs revalidate to 304;
// everything else — wrong tags, POSTs, non-terminal jobs — serves a
// full response.
func TestConditionalGetSemantics(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1})
	cfg := tinyConfig()
	req := serve.JobRequest{Config: &cfg, Design: "Baseline", Combo: serve.ComboSpec{ID: "C2"}}
	st, _ := submit(t, ts.URL, req)
	waitState(t, ts.URL, st.ID, serve.StateDone)
	jobURL := ts.URL + "/v1/jobs/" + st.ID
	etag := `"` + st.ID + `"`

	for _, inm := range []string{
		etag, "*", `W/` + etag, `"other", ` + etag,
		`"a" ,  ` + etag + ` , "b"`, `"a",,` + etag, etag + `,`,
	} {
		resp, body := rawFetch(t, http.MethodGet, jobURL, map[string]string{"If-None-Match": inm}, nil)
		if resp.StatusCode != http.StatusNotModified {
			t.Fatalf("If-None-Match %q: %d, want 304", inm, resp.StatusCode)
		}
		if len(body) != 0 {
			t.Fatalf("304 carried a %d-byte body", len(body))
		}
		if resp.Header.Get("ETag") != etag {
			t.Fatalf("304 without the ETag header (If-None-Match %q)", inm)
		}
	}

	for _, inm := range []string{`"mismatch"`, `W/"other"`} {
		resp, body := rawFetch(t, http.MethodGet, jobURL, map[string]string{"If-None-Match": inm}, nil)
		if resp.StatusCode != http.StatusOK || len(body) == 0 {
			t.Fatalf("mismatched If-None-Match %q: %d with %d-byte body, want full 200", inm, resp.StatusCode, len(body))
		}
	}

	// POST ignores If-None-Match: a resubmission always gets the result.
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := rawFetch(t, http.MethodPost, ts.URL+"/v1/jobs", map[string]string{"If-None-Match": etag}, payload)
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"cached":true`)) {
		t.Fatalf("POST with If-None-Match: %d, want full 200 hit", resp.StatusCode)
	}

	// A non-terminal job has no stable representation: no ETag, no 304.
	long := tinyConfig()
	long.Cycles = 2_000_000_000
	lreq := serve.JobRequest{
		Config:  &long,
		Design:  "Baseline",
		Combo:   serve.ComboSpec{ID: "C1"},
		Timeout: serve.Duration(2 * time.Second), // self-destructs if the cancel below is lost
	}
	lst, code := submit(t, ts.URL, lreq)
	if code != http.StatusAccepted {
		t.Fatalf("long submit: %d", code)
	}
	waitState(t, ts.URL, lst.ID, serve.StateRunning)
	resp, body = rawFetch(t, http.MethodGet, ts.URL+"/v1/jobs/"+lst.ID,
		map[string]string{"If-None-Match": `"` + lst.ID + `"`}, nil)
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("conditional GET of a running job: %d, want full 200", resp.StatusCode)
	}
	if resp.Header.Get("ETag") != "" {
		t.Fatal("running job served with an ETag; its representation is not stable")
	}
	rawFetch(t, http.MethodDelete, ts.URL+"/v1/jobs/"+lst.ID, nil, nil)
	waitState(t, ts.URL, lst.ID, serve.StateCanceled, serve.StateDeadline)
}

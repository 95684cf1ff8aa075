package serve_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/hydrogen-sim/hydrogen/internal/serve"
	"github.com/hydrogen-sim/hydrogen/internal/system"
)

// TestHostileSubmissions: every malformed, type-confused, or hostile
// payload is a clean 400 — never a 5xx, never a dropped connection
// (which is what a handler panic looks like from the client side).
func TestHostileSubmissions(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1})
	cases := []struct {
		name string
		body string
	}{
		{"empty", ``},
		{"not json", `not json at all`},
		{"truncated object", `{"design":"Baseline","combo":`},
		{"null", `null`},
		{"array", `[1,2,3]`},
		{"bare string", `"Baseline"`},
		{"missing design", `{"combo":"C1"}`},
		{"empty design", `{"design":"","combo":"C1"}`},
		{"unknown design", `{"design":"NoSuchDesign","combo":"C1"}`},
		{"removed design SetPart", `{"design":"SetPart","combo":"C1"}`},
		{"unknown combo", `{"design":"Baseline","combo":"C99"}`},
		{"combo wrong type", `{"design":"Baseline","combo":42}`},
		{"combo null bytes", "{\"design\":\"Baseline\",\"combo\":\"C1\\u0000\"}"},
		{"design wrong type", `{"design":{"a":1},"combo":"C1"}`},
		{"cycles wrong type", `{"design":"Baseline","combo":"C1","cycles":"lots"}`},
		{"negative cycles", `{"design":"Baseline","combo":"C1","cycles":-1}`},
		{"seed wrong type", `{"design":"Baseline","combo":"C1","seed":[]}`},
		{"timeout garbage", `{"design":"Baseline","combo":"C1","timeout":"soon"}`},
		{"timeout negative", `{"design":"Baseline","combo":"C1","timeout":"-1h"}`},
		{"timeout wrong type", `{"design":"Baseline","combo":"C1","timeout":{}}`},
		{"config wrong type", `{"design":"Baseline","combo":"C1","config":"quick"}`},
		{"fixed point out of range", `{"design":"Hydrogen","hydrogen":{"fixed_point":[4,1,3]},"combo":"C1"}`},
		{"token level out of range", `{"design":"Hydrogen","hydrogen":{"tok_idx":7},"combo":"C1"}`},
		{"unknown swap mode", `{"design":"Hydrogen","hydrogen":{"swap":4},"combo":"C1"}`},
		{"hydrogen options on Baseline", `{"design":"Baseline","hydrogen":{},"combo":"C1"}`},
		{"hydrogen options on an alias", `{"design":"Hydrogen-DP","hydrogen":{"tokens":true},"combo":"C1"}`},
		{"hydrogen wrong type", `{"design":"Hydrogen","hydrogen":"full","combo":"C1"}`},
		{"combo without CPU workloads", `{"design":"Baseline","combo":{"id":"mine","gpu":"bert"}}`},
		{"config invalid hybrid", `{"design":"Hydrogen","combo":"C1","config":{"hybrid":{"fast_capacity_bytes":-1}}}`},
		{"huge nesting", `{"design":` + strings.Repeat(`[`, 1000) + strings.Repeat(`]`, 1000) + `,"combo":"C1"}`},
		{"long string field", `{"design":"` + strings.Repeat("A", 1<<16) + `","combo":"C1"}`},
	}
	// Machine shapes system.New rejects: each would otherwise reach a
	// worker and panic there, or run without its GPU.
	for name, mutate := range map[string]func(*system.Config){
		"config CPU base IPC 0":    func(c *system.Config) { c.CPU.BaseIPC = 0 },
		"config GPU issue width 0": func(c *system.Config) { c.GPU.IssuePerCyc = 0 },
		"config CPU L2 assoc 0":    func(c *system.Config) { c.CPU.L2.Assoc = 0 },
		"config GPU L1 assoc 300":  func(c *system.Config) { c.GPU.L1.Assoc = 300 },
		"config LLC 1000 bytes":    func(c *system.Config) { c.LLC.SizeBytes = 1000 },
		"config GPU subslices 0":   func(c *system.Config) { c.GPU.Subslices = 0 },
		"config negative cores":    func(c *system.Config) { c.Cores = -1 },
	} {
		cfg := tinyConfig()
		mutate(&cfg)
		body, err := json.Marshal(serve.JobRequest{Config: &cfg, Design: "Baseline", Combo: serve.ComboSpec{ID: "C1"}})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, struct{ name, body string }{name, string(body)})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatalf("transport error (handler panic?): %v", err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("code %d, want 400", resp.StatusCode)
			}
		})
	}
}

// FuzzSubmit hammers the submit handler with mutated payloads; the
// invariant is that the server always answers with a well-formed HTTP
// response — anything below 500 — and never panics the handler (which
// would surface as a transport error). The seed corpus deliberately
// contains no valid design name, so seed-corpus CI runs never enqueue
// a simulation.
func FuzzSubmit(f *testing.F) {
	for _, seed := range []string{
		``,
		`{}`,
		`null`,
		`{"design":"X","combo":"C1"}`,
		`{"design":"X","combo":{"id":"C1","cpu":["a"],"gpu":"b"}}`,
		`{"design":"X","combo":"C1","cycles":18446744073709551615}`,
		`{"design":"X","combo":"C1","timeout":"1ns"}`,
		`{"design":"X","combo":"C1","config":{"cycles":1}}`,
		`{"design":` + `"` + "\x00\xff" + `","combo":"C1"}`,
		`{"design":"X","combo":[{}]}`,
	} {
		f.Add([]byte(seed))
	}
	srv, err := serve.New(serve.Options{Workers: 1, QueueDepth: 4})
	if err != nil {
		f.Fatal(err)
	}
	defer srv.Close()
	hts := httptest.NewServer(srv)
	f.Cleanup(hts.Close)

	f.Fuzz(func(t *testing.T, body []byte) {
		resp, err := http.Post(hts.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatalf("transport error (handler panic?): %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode >= 500 && resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("payload %q: server error %d", body, resp.StatusCode)
		}
	})
}

// TestSubmitBodyCapped: a submit body past the 1 MiB cap is refused
// with 413 before it is decoded, so it never reaches the queue even
// when the oversized payload is an otherwise valid job.
func TestSubmitBodyCapped(t *testing.T) {
	srv, ts := newTestServer(t, serve.Options{Workers: 1})
	cfg := tinyConfig()
	req, err := json.Marshal(serve.JobRequest{Config: &cfg, Design: "Baseline", Combo: serve.ComboSpec{ID: "C1"}})
	if err != nil {
		t.Fatal(err)
	}
	// Unknown fields are ignored on decode, so the padding leaves a
	// runnable job.
	body := string(req[:len(req)-1]) + `,"pad":"` + strings.Repeat("A", 2<<20) + `"}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("transport error: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("code %d, want 413", resp.StatusCode)
	}
	if n := srv.SimulationsStarted(); n != 0 {
		t.Fatalf("SimulationsStarted = %d after an oversized submit, want 0", n)
	}
}

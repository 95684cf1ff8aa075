package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// TestRunShortIDNoPanic: the job ID in a status comes off the network,
// so a failed or canceled job whose ID is shorter than the abbreviation
// used in Run's error must surface as an error, not a panic.
func TestRunShortIDNoPanic(t *testing.T) {
	for _, state := range []string{"failed", "canceled"} {
		mux := http.NewServeMux()
		reply := func(w http.ResponseWriter, r *http.Request) {
			json.NewEncoder(w).Encode(JobStatus{ID: "ab", State: state, Error: "boom"})
		}
		mux.HandleFunc("POST /v1/jobs", reply)
		mux.HandleFunc("GET /v1/jobs/{id}", reply)
		ts := httptest.NewServer(mux)
		c := New(ts.URL)
		c.Retry = NoRetry
		_, st, err := c.Run(context.Background(), JobRequest{Design: "Hydrogen", Combo: ComboSpec{ID: "C1"}})
		ts.Close()
		if err == nil || st == nil || st.State != state {
			t.Fatalf("%s: Run = (%v, %v), want the %s status and an error", state, st, err, state)
		}
		if !strings.Contains(err.Error(), "job ab ") {
			t.Fatalf("%s: error %q does not name the job", state, err)
		}
	}
}

// TestIsQuarantinedWrapped: a 422 the caller wrapped with %w is still
// recognized, as RetryAfterHint recognizes a wrapped 429.
func TestIsQuarantinedWrapped(t *testing.T) {
	ts := httptest.NewServer(status(http.StatusUnprocessableEntity))
	defer ts.Close()
	c := New(ts.URL)
	c.Retry = NoRetry
	_, err := c.Submit(context.Background(), JobRequest{Design: "Hydrogen", Combo: ComboSpec{ID: "C1"}})
	if !IsQuarantined(err) {
		t.Fatalf("IsQuarantined(%v) = false", err)
	}
	if wrapped := fmt.Errorf("sweep point 3: %w", err); !IsQuarantined(wrapped) {
		t.Fatalf("IsQuarantined(%v) = false for a wrapped 422", wrapped)
	}
	if IsQuarantined(fmt.Errorf("other: %w", errors.New("x"))) {
		t.Fatal("IsQuarantined true for a non-API error")
	}
}

// TestRunResubmitsAfterRestart: a daemon that restarted after the job
// finished answers the poll 404; Run resubmits once, and the
// resubmission's cache hit is the answer. A second 404 is returned, not
// chased.
func TestRunResubmitsAfterRestart(t *testing.T) {
	for _, restarts := range []int{1, 2} {
		var posts atomic.Int32
		mux := http.NewServeMux()
		mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
			st := JobStatus{ID: "job1", State: "queued"}
			if posts.Add(1) > int32(restarts) {
				st = JobStatus{ID: "job1", State: "done", Cached: true, Result: json.RawMessage(`{}`)}
			}
			json.NewEncoder(w).Encode(st)
		})
		mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusNotFound)
			json.NewEncoder(w).Encode(map[string]string{"error": "no such job"})
		})
		ts := httptest.NewServer(mux)
		c := New(ts.URL)
		c.Retry = NoRetry
		_, st, err := c.Run(context.Background(), JobRequest{Design: "Hydrogen", Combo: ComboSpec{ID: "C1"}})
		ts.Close()
		if n := posts.Load(); n != 2 {
			t.Fatalf("%d restart(s): Run posted %d times, want 2", restarts, n)
		}
		switch {
		case restarts == 1 && (err != nil || !st.Cached):
			t.Fatalf("one restart: Run = (%+v, %v), want the cached result", st, err)
		case restarts == 2 && (err == nil || !strings.Contains(err.Error(), "404")):
			t.Fatalf("two restarts: Run error %v, want the second 404", err)
		}
	}
}

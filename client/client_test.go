package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
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

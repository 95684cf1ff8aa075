package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// fastRetry keeps test wall-clock low while exercising the real loop.
func fastRetry() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: 2 * time.Millisecond, MaxDelay: 10 * time.Millisecond, Budget: 5 * time.Second}
}

// flaky serves errors for the first `failures` requests, then delegates
// to ok.
func flaky(failures int32, fail, ok http.HandlerFunc) (http.HandlerFunc, *atomic.Int32) {
	var calls atomic.Int32
	return func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= failures {
			fail(w, r)
			return
		}
		ok(w, r)
	}, &calls
}

func serveDesigns(w http.ResponseWriter, r *http.Request) {
	json.NewEncoder(w).Encode([]string{"Baseline", "Hydrogen"})
}

func status(code int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(map[string]string{"error": http.StatusText(code)})
	}
}

// Test503ThenSuccess: transient 503s are retried until the server
// recovers; the caller sees only the success.
func Test503ThenSuccess(t *testing.T) {
	h, calls := flaky(2, status(http.StatusServiceUnavailable), serveDesigns)
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := New(ts.URL)
	c.Retry = fastRetry()

	designs, err := c.Designs(context.Background())
	if err != nil {
		t.Fatalf("Designs after flaky 503s: %v", err)
	}
	if len(designs) != 2 {
		t.Fatalf("designs: %v", designs)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3 (two 503s + success)", got)
	}
}

// TestConnectionResetRetried: a connection torn down mid-request is a
// transport error, which the client retries like any transient failure.
func TestConnectionResetRetried(t *testing.T) {
	h, calls := flaky(1, func(w http.ResponseWriter, r *http.Request) {
		hj, ok := w.(http.Hijacker)
		if !ok {
			t.Fatal("response writer cannot hijack")
		}
		conn, _, err := hj.Hijack()
		if err != nil {
			t.Fatal(err)
		}
		conn.Close() // slam the connection shut with no response
	}, serveDesigns)
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := New(ts.URL)
	c.Retry = fastRetry()

	if _, err := c.Designs(context.Background()); err != nil {
		t.Fatalf("Designs after connection reset: %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d requests, want 2", got)
	}
}

// TestRetryAfterHonored: the server's Retry-After is the minimum wait
// before the next attempt, even when backoff alone would retry sooner.
func TestRetryAfterHonored(t *testing.T) {
	h, _ := flaky(1, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		status(http.StatusServiceUnavailable)(w, r)
	}, serveDesigns)
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := New(ts.URL)
	c.Retry = fastRetry() // backoff steps are single-digit milliseconds

	start := time.Now()
	if _, err := c.Designs(context.Background()); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < time.Second {
		t.Fatalf("retried after %s, want >= 1s (Retry-After: 1)", elapsed)
	}
}

// TestBudgetExhausted: when the next wait would exceed the sleep
// budget, the client gives up and returns the last server error.
func TestBudgetExhausted(t *testing.T) {
	ts := httptest.NewServer(status(http.StatusServiceUnavailable))
	defer ts.Close()
	c := New(ts.URL)
	c.Retry = RetryPolicy{MaxAttempts: 10, BaseDelay: 50 * time.Millisecond, MaxDelay: 50 * time.Millisecond, Budget: time.Nanosecond}

	start := time.Now()
	_, err := c.Designs(context.Background())
	ae, ok := err.(*apiError)
	if !ok || ae.Code != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want the 503 apiError", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("spent %s despite a 1ns budget", elapsed)
	}
}

// TestMaxAttemptsExhausted: a persistent 429 burns every attempt and
// surfaces as a queue-full error the caller can classify.
func TestMaxAttemptsExhausted(t *testing.T) {
	h, calls := flaky(1<<30, status(http.StatusTooManyRequests), serveDesigns)
	ts := httptest.NewServer(h)
	defer ts.Close()
	c := New(ts.URL)
	c.Retry = fastRetry()

	_, err := c.Designs(context.Background())
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want errors.Is(err, ErrOverloaded)", err)
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("server saw %d requests, want MaxAttempts=4", got)
	}
}

// TestPermanentErrorsNotRetried: 400 and 422 are the caller's problem;
// exactly one request goes out.
func TestPermanentErrorsNotRetried(t *testing.T) {
	for _, code := range []int{http.StatusBadRequest, http.StatusUnprocessableEntity, http.StatusNotFound} {
		h, calls := flaky(1<<30, status(code), serveDesigns)
		ts := httptest.NewServer(h)
		c := New(ts.URL)
		c.Retry = fastRetry()
		_, err := c.Designs(context.Background())
		ae, ok := err.(*apiError)
		if !ok || ae.Code != code {
			t.Fatalf("code %d: err = %v", code, err)
		}
		if got := calls.Load(); got != 1 {
			t.Fatalf("code %d: server saw %d requests, want 1", code, got)
		}
		if code == http.StatusUnprocessableEntity && !IsQuarantined(err) {
			t.Fatal("422 not classified as quarantined")
		}
		ts.Close()
	}
}

// TestContextCancelStopsRetries: a canceled context ends the retry loop
// promptly instead of sleeping out the schedule.
func TestContextCancelStopsRetries(t *testing.T) {
	ts := httptest.NewServer(status(http.StatusServiceUnavailable))
	defer ts.Close()
	c := New(ts.URL)
	c.Retry = RetryPolicy{MaxAttempts: 100, BaseDelay: time.Second, MaxDelay: time.Second, Budget: time.Hour}

	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(20 * time.Millisecond); cancel() }()
	start := time.Now()
	_, err := c.Designs(ctx)
	if err == nil {
		t.Fatal("expected an error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancel took %s to stop the retry loop", elapsed)
	}
}

// TestWaitTreatsDeadlineTerminal: Wait must return on the
// deadline_exceeded state instead of polling forever.
func TestWaitTreatsDeadlineTerminal(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(JobStatus{ID: r.PathValue("id"), State: "deadline_exceeded", Error: "deadline exceeded"})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c := New(ts.URL)
	c.Retry = fastRetry()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := c.Wait(ctx, "abc")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "deadline_exceeded" {
		t.Fatalf("state %q", st.State)
	}
}

// TestDelayFloorsAtRetryAfter pins the pacing contract: jitter may
// stretch a backoff step but must never cut a wait below the server's
// Retry-After — the server's hint is a floor, not a suggestion.
func TestDelayFloorsAtRetryAfter(t *testing.T) {
	p := RetryPolicy{BaseDelay: 2 * time.Millisecond, MaxDelay: 10 * time.Millisecond}.withDefaults()
	const ra = 250 * time.Millisecond
	for attempt := 1; attempt <= 6; attempt++ {
		for i := 0; i < 200; i++ {
			if d := p.delay(attempt, ra); d < ra {
				t.Fatalf("attempt %d: delay %v jittered below Retry-After %v", attempt, d, ra)
			}
		}
	}
	// Without a hint the jittered step still lands in [Max/2, Max].
	for i := 0; i < 200; i++ {
		if d := p.delay(10, 0); d < p.MaxDelay/2 || d > p.MaxDelay {
			t.Fatalf("unhinted delay %v outside [%v, %v]", d, p.MaxDelay/2, p.MaxDelay)
		}
	}
}

// TestErrOverloadedAndHint: a 429 surfaces as ErrOverloaded with the
// server's Retry-After recoverable via RetryAfterHint, so sweep
// runners can pace resubmission to the daemon's hint.
func TestErrOverloadedAndHint(t *testing.T) {
	h := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		status(http.StatusTooManyRequests)(w, r)
	}
	ts := httptest.NewServer(http.HandlerFunc(h))
	defer ts.Close()
	c := New(ts.URL)
	c.Retry = RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Budget: time.Millisecond}

	_, err := c.Submit(context.Background(), JobRequest{Design: "Hydrogen", Combo: ComboSpec{ID: "C1"}})
	if err == nil {
		t.Fatal("Submit against a 429 server succeeded")
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want errors.Is(err, ErrOverloaded)", err)
	}
	if got := RetryAfterHint(err); got != 7*time.Second {
		t.Fatalf("RetryAfterHint = %v, want 7s", got)
	}
	// Non-429 errors are not "overloaded" and carry no false hint.
	ts2 := httptest.NewServer(status(http.StatusNotFound))
	defer ts2.Close()
	c2 := New(ts2.URL)
	c2.Retry = NoRetry
	_, err = c2.Job(context.Background(), "deadbeef")
	if errors.Is(err, ErrOverloaded) {
		t.Fatalf("404 reported as ErrOverloaded: %v", err)
	}
}

// Package client is a thin Go client for the hydroserved simulation
// service (cmd/hydroserved): job submission, status polling, waiting,
// cancellation, and telemetry snapshots. The wire types are shared with
// the server, so a submitted config round-trips losslessly.
//
// A Client talks to one daemon. Every call is one HTTP request, retried
// only on transient failure (see RetryPolicy); nothing is cached on the
// client side, so a Job call always fetches and decodes the current
// status. Any member of a hydroserved cluster will do as the daemon:
// members proxy to a job's owner.
//
//	c := client.New("http://127.0.0.1:8077")
//	res, st, err := c.Run(ctx, client.JobRequest{
//		Design: "Hydrogen",
//		Combo:  client.ComboSpec{ID: "C1"},
//	})
//	// st.Cached reports whether the daemon answered from its cache.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	hydrogen "github.com/hydrogen-sim/hydrogen"
	"github.com/hydrogen-sim/hydrogen/internal/obs"
	"github.com/hydrogen-sim/hydrogen/internal/serve"
)

// Wire types, shared with the server.
type (
	// JobRequest is the POST /v1/jobs payload.
	JobRequest = serve.JobRequest
	// JobStatus is a job record, including the result once done.
	JobStatus = serve.JobStatus
	// ComboSpec names a Table II combo or an inline custom assignment.
	ComboSpec = serve.ComboSpec
	// TelemetrySnapshot is the GET /v1/jobs/{id}/telemetry payload.
	TelemetrySnapshot = serve.TelemetrySnapshot
)

// Client talks to one hydroserved instance. Safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client
	// PollInterval is the status poll cadence for Wait; zero selects an
	// adaptive 25ms..500ms backoff.
	PollInterval time.Duration
	// Retry governs transparent retries of transient failures (see
	// RetryPolicy); the zero value selects the defaults. Assign NoRetry
	// to disable.
	Retry RetryPolicy
	// Logger, when set, receives one debug record per API call with the
	// request ID the call carried, so client and server logs correlate.
	Logger *slog.Logger
}

// bufPool holds scratch read buffers reused across API calls and retry
// attempts, so a polling loop does not allocate a fresh response
// buffer per request. Decoding copies what it keeps (json.RawMessage
// copies its bytes), so returning the buffer to the pool is safe.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// New returns a client for the daemon at baseURL (e.g.
// "http://127.0.0.1:8077").
func New(baseURL string) *Client {
	return &Client{base: strings.TrimRight(baseURL, "/"), hc: &http.Client{}}
}

// apiError is a non-2xx response decoded from the server's error body.
type apiError struct {
	Code       int
	Msg        string
	RetryAfter time.Duration // server's Retry-After hint, 0 if absent
}

func (e *apiError) Error() string {
	return fmt.Sprintf("hydroserved: %d %s", e.Code, e.Msg)
}

// ErrOverloaded is the sentinel every 429 rejection unwraps to: the
// server's run queue was full. Callers match it with errors.Is, back
// off for RetryAfterHint, and resubmit; content addressing makes the
// resubmission attach to any work already admitted.
var ErrOverloaded = errors.New("hydroserved: overloaded")

// Unwrap lets errors.Is(err, ErrOverloaded) recognize queue-full
// rejections without exporting the concrete error type.
func (e *apiError) Unwrap() error {
	if e.Code == http.StatusTooManyRequests {
		return ErrOverloaded
	}
	return nil
}

// RetryAfterHint extracts the server's Retry-After duration from an
// error returned by this client: how long the daemon asked the caller
// to wait before resubmitting (one second for a full queue). Zero when
// err carries no hint.
func RetryAfterHint(err error) time.Duration {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.RetryAfter
	}
	return 0
}

// IsQuarantined reports whether err is the server's quarantine
// rejection: the job has failed repeatedly and will not be accepted
// again, so retrying is pointless.
func IsQuarantined(err error) bool {
	var ae *apiError
	return errors.As(err, &ae) && ae.Code == http.StatusUnprocessableEntity
}

// do issues one API request with the client's retry policy: transport
// errors and retryable statuses (see retryableStatus) back off and try
// again — job submission is content-addressed, so a replayed POST
// attaches to the original job instead of duplicating work — while
// permanent rejections return immediately.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var data []byte
	if body != nil {
		var err error
		if data, err = json.Marshal(body); err != nil {
			return err
		}
	}
	pol := c.Retry.withDefaults()
	// One request ID covers every attempt of this call, so retries of a
	// flaky submission correlate to one logical operation in the
	// server's access log.
	reqID := obs.NewRequestID()
	var slept time.Duration
	var lastErr error
	for attempt := 1; ; attempt++ {
		var rd io.Reader
		if data != nil {
			rd = bytes.NewReader(data) // fresh body every attempt
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			return err
		}
		req.Header.Set(obs.HeaderRequestID, reqID)
		if data != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		var retryAfter time.Duration
		resp, err := c.hc.Do(req)
		if c.Logger != nil {
			status := 0
			if resp != nil {
				status = resp.StatusCode
			}
			c.Logger.Debug("api request", "method", method, "path", path,
				"status", status, "attempt", attempt, "request_id", reqID, "err", err)
		}
		switch {
		case err != nil:
			if ctx.Err() != nil {
				return err // the caller gave up; not a server failure
			}
			lastErr = err
		case resp.StatusCode/100 == 2:
			if out == nil {
				resp.Body.Close()
				return nil
			}
			buf := bufPool.Get().(*bytes.Buffer)
			buf.Reset()
			_, rerr := buf.ReadFrom(resp.Body)
			resp.Body.Close()
			if rerr == nil {
				rerr = json.Unmarshal(buf.Bytes(), out)
			}
			bufPool.Put(buf)
			return rerr
		default:
			var e struct {
				Error string `json:"error"`
			}
			msg := resp.Status
			if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
				msg = e.Error
			}
			ae := &apiError{
				Code:       resp.StatusCode,
				Msg:        msg,
				RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
			}
			resp.Body.Close()
			if !retryableStatus(resp.StatusCode) {
				return ae
			}
			lastErr = ae
			retryAfter = ae.RetryAfter
		}
		if attempt >= pol.MaxAttempts {
			return lastErr
		}
		d := pol.delay(attempt, retryAfter)
		if slept+d > pol.Budget {
			return lastErr // the wait would blow the budget; give up now
		}
		slept += d
		timer := time.NewTimer(d)
		select {
		case <-ctx.Done():
			timer.Stop()
			return lastErr
		case <-timer.C:
		}
	}
}

// Submit posts a job. The returned status may already be terminal: a
// cache hit comes back done with the result attached, and a submission
// identical to an in-flight job attaches to it (Deduped).
func (c *Client) Submit(ctx context.Context, req JobRequest) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Job fetches a job's status (with result when done).
func (c *Client) Job(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Cancel requests cancellation of a queued or running job.
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, nil)
}

// Telemetry fetches a job's per-epoch telemetry snapshot: the retained
// points (knob trajectory, token and migration activity, tier
// utilization) plus how many older points the server's bounded ring
// dropped.
func (c *Client) Telemetry(ctx context.Context, id string) (*TelemetrySnapshot, error) {
	var ts TelemetrySnapshot
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/telemetry", nil, &ts); err != nil {
		return nil, err
	}
	return &ts, nil
}

// Designs lists the server's design names.
func (c *Client) Designs(ctx context.Context) ([]string, error) {
	var out []string
	err := c.do(ctx, http.MethodGet, "/v1/designs", nil, &out)
	return out, err
}

// Combos lists the server's Table II combo IDs.
func (c *Client) Combos(ctx context.Context) ([]string, error) {
	var out []string
	err := c.do(ctx, http.MethodGet, "/v1/combos", nil, &out)
	return out, err
}

// Wait polls until the job reaches a terminal state (or ctx expires)
// and returns the final status.
func (c *Client) Wait(ctx context.Context, id string) (*JobStatus, error) {
	interval := c.PollInterval
	adaptive := interval <= 0
	if adaptive {
		interval = 25 * time.Millisecond
	}
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		switch st.State {
		case serve.StateDone, serve.StateFailed, serve.StateCanceled, serve.StateDeadline:
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(interval):
		}
		if adaptive && interval < 500*time.Millisecond {
			interval *= 2
		}
	}
}

// Run submits a job, waits for completion, and decodes the results. A
// failed or canceled job is reported as an error; the final status is
// returned alongside so callers can inspect Cached/Deduped/timings.
//
// A daemon that restarted while Run waited holds no record of a job
// that finished before the restart, and answers its poll 404. Run then
// submits once more: content addressing makes the resubmission a cache
// hit on the daemon's spill directory, or a re-run.
func (c *Client) Run(ctx context.Context, req JobRequest) (hydrogen.Results, *JobStatus, error) {
	st, err := c.Submit(ctx, req)
	if err == nil && st.State != serve.StateDone {
		st, err = c.Wait(ctx, st.ID)
		var ae *apiError
		if errors.As(err, &ae) && ae.Code == http.StatusNotFound {
			if st, err = c.Submit(ctx, req); err == nil && st.State != serve.StateDone {
				st, err = c.Wait(ctx, st.ID)
			}
		}
	}
	if err != nil {
		return hydrogen.Results{}, st, err
	}
	switch st.State {
	case serve.StateDone:
	case serve.StateFailed:
		return hydrogen.Results{}, st, fmt.Errorf("hydroserved: job %s failed: %s", shortID(st.ID), st.Error)
	default:
		return hydrogen.Results{}, st, fmt.Errorf("hydroserved: job %s %s", shortID(st.ID), st.State)
	}
	var res hydrogen.Results
	if err := json.Unmarshal(st.Result, &res); err != nil {
		return hydrogen.Results{}, st, fmt.Errorf("hydroserved: decode result: %w", err)
	}
	return res, st, nil
}

// shortID abbreviates a job ID for error messages. The ID comes off the
// network, so it may be shorter than the abbreviation.
func shortID(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}

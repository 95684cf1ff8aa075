// Package client is a thin Go client for the hydroserved simulation
// service (cmd/hydroserved): job submission, status polling, waiting,
// cancellation, and telemetry snapshots. The wire types are shared with
// the server, so a submitted config round-trips losslessly.
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
	"github.com/hydrogen-sim/hydrogen/internal/cluster"
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

// Client talks to a hydroserved instance — or to a cluster of them,
// when New is given peer base URLs. Requests go to the first base not
// currently marked down; a transport error marks the attempted base
// down, and a relayed peer failure (tagged with X-Hydro-Peer-Url by
// the responding daemon) marks the failed PEER down, so retries skip
// the dead member instead of re-timing-out through it. Safe for
// concurrent use.
type Client struct {
	bases []string // primary first; later entries are failover peers
	hc    *http.Client
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

	// Terminal job statuses the server tagged with an ETag, kept so
	// later polls can revalidate with If-None-Match and reuse the parsed
	// status on 304 instead of re-downloading and re-decoding the
	// result. Bounded FIFO; guarded by mu.
	mu       sync.Mutex
	statuses map[string]cachedStatus
	order    []string

	// deadUntil marks base URLs to skip until the deadline passes
	// (RetryPolicy.PeerDownTTL); guarded by mu.
	deadUntil map[string]time.Time
}

// statusCacheMax bounds the client-side terminal-status cache; a sweep
// polls far fewer jobs than this at once, and evicted entries merely
// cost one full re-download.
const statusCacheMax = 128

// cachedStatus ties a terminal JobStatus to the ETag it was served
// under.
type cachedStatus struct {
	etag string
	st   JobStatus
}

// bufPool holds scratch read buffers reused across API calls and retry
// attempts, so a polling loop does not allocate a fresh response
// buffer per request. Decoding copies what it keeps (json.RawMessage
// copies its bytes), so returning the buffer to the pool is safe.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// New returns a client for the daemon at baseURL (e.g.
// "http://127.0.0.1:8077"). Additional peer base URLs make the client
// cluster-aware: any member can answer any request (job IDs are
// content-addressed and peers proxy to the owner), so when one base is
// down the client fails over to the next instead of erroring out.
func New(baseURL string, peers ...string) *Client {
	bases := make([]string, 0, 1+len(peers))
	bases = append(bases, strings.TrimRight(baseURL, "/"))
	for _, p := range peers {
		if p = strings.TrimRight(p, "/"); p != "" && p != bases[0] {
			bases = append(bases, p)
		}
	}
	return &Client{bases: bases, hc: &http.Client{}}
}

// pickBase returns the first base URL not currently marked down; when
// everything is marked down the primary is used anyway (a TTL entry
// must never render the client unable to try at all).
func (c *Client) pickBase() string {
	if len(c.bases) == 1 {
		return c.bases[0]
	}
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, b := range c.bases {
		if until, down := c.deadUntil[b]; !down || now.After(until) {
			return b
		}
	}
	return c.bases[0]
}

// markDown records that base (one of the client's configured bases)
// failed, so pickBase skips it for PeerDownTTL. Unknown URLs — a peer
// the client was not configured with — are ignored.
func (c *Client) markDown(base string) {
	base = strings.TrimRight(base, "/")
	if len(c.bases) == 1 {
		return // nowhere else to go; keep trying the only base
	}
	known := false
	for _, b := range c.bases {
		if b == base {
			known = true
			break
		}
	}
	if !known {
		return
	}
	ttl := c.Retry.withDefaults().PeerDownTTL
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.deadUntil == nil {
		c.deadUntil = make(map[string]time.Time, len(c.bases))
	}
	c.deadUntil[base] = time.Now().Add(ttl)
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
	ae, ok := err.(*apiError)
	return ok && ae.Code == http.StatusUnprocessableEntity
}

// do issues one API request with the client's retry policy: transport
// errors and retryable statuses (see retryableStatus) back off and try
// again — job submission is content-addressed, so a replayed POST
// attaches to the original job instead of duplicating work — while
// permanent rejections return immediately.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	_, err := c.doCond(ctx, method, path, "", body, out)
	return err
}

// respMeta is what doCond reports about the response it settled on:
// the status, the ETag the server attached (empty if none), and
// whether the server answered 304 Not Modified — in which case out was
// left untouched and the caller reuses its cached copy.
type respMeta struct {
	status      int
	etag        string
	notModified bool
}

// doCond is do with conditional-request support: when etag is
// non-empty it is sent as If-None-Match, and a 304 response returns
// immediately with notModified set instead of decoding a body.
func (c *Client) doCond(ctx context.Context, method, path, etag string, body, out any) (respMeta, error) {
	var data []byte
	if body != nil {
		var err error
		if data, err = json.Marshal(body); err != nil {
			return respMeta{}, err
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
		base := c.pickBase()
		req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
		if err != nil {
			return respMeta{}, err
		}
		req.Header.Set(obs.HeaderRequestID, reqID)
		if data != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		var retryAfter time.Duration
		resp, err := c.hc.Do(req)
		if c.Logger != nil {
			status := 0
			if resp != nil {
				status = resp.StatusCode
			}
			c.Logger.Debug("api request", "method", method, "path", path, "base", base,
				"status", status, "attempt", attempt, "request_id", reqID, "err", err)
		}
		switch {
		case err != nil:
			if ctx.Err() != nil {
				return respMeta{}, err // the caller gave up; not a server failure
			}
			c.markDown(base) // unreachable: fail over to the next base
			lastErr = err
		case etag != "" && resp.StatusCode == http.StatusNotModified:
			resp.Body.Close()
			return respMeta{status: resp.StatusCode, etag: etag, notModified: true}, nil
		case resp.StatusCode/100 == 2:
			meta := respMeta{status: resp.StatusCode, etag: resp.Header.Get("ETag")}
			if out == nil {
				resp.Body.Close()
				return meta, nil
			}
			buf := bufPool.Get().(*bytes.Buffer)
			buf.Reset()
			_, rerr := buf.ReadFrom(resp.Body)
			resp.Body.Close()
			if rerr == nil {
				rerr = json.Unmarshal(buf.Bytes(), out)
			}
			bufPool.Put(buf)
			return meta, rerr
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
				return respMeta{status: resp.StatusCode}, ae
			}
			// A 5xx relayed from a dead or struggling peer carries
			// X-Hydro-Peer-Url: mark THAT member down so the retry does
			// not route back through it. An untagged 502/503/504 is the
			// contacted base's own trouble. 429 is back-pressure from a
			// healthy daemon — no markdown, just the backoff.
			if resp.StatusCode != http.StatusTooManyRequests {
				if peer := resp.Header.Get(cluster.HeaderPeerURL); peer != "" {
					c.markDown(peer)
				} else {
					c.markDown(base)
				}
			}
			lastErr = ae
			retryAfter = ae.RetryAfter
		}
		if attempt >= pol.MaxAttempts {
			return respMeta{}, lastErr
		}
		d := pol.delay(attempt, retryAfter)
		if slept+d > pol.Budget {
			return respMeta{}, lastErr // the wait would blow the budget; give up now
		}
		slept += d
		timer := time.NewTimer(d)
		select {
		case <-ctx.Done():
			timer.Stop()
			return respMeta{}, lastErr
		case <-timer.C:
		}
	}
}

// cloneStatus deep-copies a JobStatus's reference fields, so the
// status cache and callers never alias mutable state: a caller that
// rewrites the Result bytes (or the spans) of a returned status must
// not corrupt what later Job() calls are served.
func cloneStatus(st JobStatus) JobStatus {
	st.Result = append(json.RawMessage(nil), st.Result...)
	st.Spans = append([]obs.SpanRecord(nil), st.Spans...)
	st.Combo.CPU = append([]string(nil), st.Combo.CPU...)
	return st
}

// remember stores a terminal status under the ETag it arrived with,
// evicting the oldest entry once the cache is full. The stored copy is
// detached from the caller's (see cloneStatus).
func (c *Client) remember(id, etag string, st JobStatus) {
	st = cloneStatus(st)
	st.Cached = false // a fresh GET of a done job reports cached=false
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.statuses == nil {
		c.statuses = make(map[string]cachedStatus, statusCacheMax)
	}
	if _, ok := c.statuses[id]; !ok {
		if len(c.order) >= statusCacheMax {
			delete(c.statuses, c.order[0])
			c.order = c.order[1:]
		}
		c.order = append(c.order, id)
	}
	c.statuses[id] = cachedStatus{etag: etag, st: st}
}

// Submit posts a job. The returned status may already be terminal: a
// cache hit comes back done with the result attached, and a submission
// identical to an in-flight job attaches to it (Deduped).
func (c *Client) Submit(ctx context.Context, req JobRequest) (*JobStatus, error) {
	var st JobStatus
	meta, err := c.doCond(ctx, http.MethodPost, "/v1/jobs", "", req, &st)
	if err != nil {
		return nil, err
	}
	// A cache hit arrives already terminal and tagged; remember it so a
	// later Job() for the same ID revalidates instead of re-downloading.
	if meta.etag != "" && st.ID != "" {
		c.remember(st.ID, meta.etag, st)
	}
	return &st, nil
}

// Job fetches a job's status (with result when done). Once a job's
// terminal status has been seen, later calls revalidate with
// If-None-Match and reuse the already-parsed status on 304.
func (c *Client) Job(ctx context.Context, id string) (*JobStatus, error) {
	c.mu.Lock()
	cached, ok := c.statuses[id]
	c.mu.Unlock()
	etag := ""
	if ok {
		etag = cached.etag
	}
	var st JobStatus
	meta, err := c.doCond(ctx, http.MethodGet, "/v1/jobs/"+id, etag, nil, &st)
	if err != nil {
		return nil, err
	}
	if meta.notModified {
		st = cloneStatus(cached.st) // detach: callers may mutate the result
		return &st, nil
	}
	if meta.etag != "" {
		c.remember(id, meta.etag, st)
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
func (c *Client) Run(ctx context.Context, req JobRequest) (hydrogen.Results, *JobStatus, error) {
	st, err := c.Submit(ctx, req)
	if err != nil {
		return hydrogen.Results{}, nil, err
	}
	if st.State != serve.StateDone {
		if st, err = c.Wait(ctx, st.ID); err != nil {
			return hydrogen.Results{}, st, err
		}
	}
	switch st.State {
	case serve.StateDone:
	case serve.StateFailed:
		return hydrogen.Results{}, st, fmt.Errorf("hydroserved: job %s failed: %s", st.ID[:12], st.Error)
	default:
		return hydrogen.Results{}, st, fmt.Errorf("hydroserved: job %s %s", st.ID[:12], st.State)
	}
	var res hydrogen.Results
	if err := json.Unmarshal(st.Result, &res); err != nil {
		return hydrogen.Results{}, st, fmt.Errorf("hydroserved: decode result: %w", err)
	}
	return res, st, nil
}

package client

import (
	"math/rand"
	"net/http"
	"strconv"
	"time"
)

// RetryPolicy shapes the client's transparent retries. Transient
// failures — connection errors and the server's own back-pressure
// responses (429 queue full, 503 draining/journal trouble, and the
// usual 502/504 from intermediaries) — are retried with exponential
// backoff and equal jitter; everything else (400 bad payload, 404, 422
// quarantined, decode errors) is permanent and surfaces immediately.
// A Retry-After header on a rejection is honored as the minimum wait
// before the next attempt.
type RetryPolicy struct {
	// MaxAttempts bounds total tries including the first; <=0 selects 4,
	// 1 disables retries.
	MaxAttempts int
	// BaseDelay is the first backoff step, doubled each retry; <=0
	// selects 100ms.
	BaseDelay time.Duration
	// MaxDelay caps a single backoff step; <=0 selects 5s.
	MaxDelay time.Duration
	// Budget caps the total time spent sleeping between attempts: a
	// retry whose wait would exceed the remaining budget is abandoned
	// and the last error returned. <=0 selects 30s.
	Budget time.Duration
}

// NoRetry disables retries entirely; assign it to Client.Retry when
// the caller does its own retry orchestration.
var NoRetry = RetryPolicy{MaxAttempts: 1}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 5 * time.Second
	}
	if p.Budget <= 0 {
		p.Budget = 30 * time.Second
	}
	return p
}

// retryableStatus: the server sends 429 (queue full) and 503
// (draining, owner unreachable, journal write failed) as explicit
// back-off-and-retry signals; 502/504 are the proxy equivalents.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests,
		http.StatusBadGateway,
		http.StatusServiceUnavailable,
		http.StatusGatewayTimeout:
		return true
	}
	return false
}

// delay computes the wait after the attempt-th try (1-based): an
// exponentially grown, equal-jittered step, raised to the server's
// Retry-After hint when that is longer.
func (p RetryPolicy) delay(attempt int, retryAfter time.Duration) time.Duration {
	d := p.MaxDelay
	if attempt-1 < 16 { // beyond 16 doublings the cap always wins
		if step := p.BaseDelay << (attempt - 1); step < d {
			d = step
		}
	}
	// Equal jitter: half deterministic, half uniform — desynchronizes a
	// fleet of sweep clients without ever halving the intended wait.
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// parseRetryAfter reads a Retry-After header: integer seconds or an
// HTTP date; anything else counts as absent.
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(h); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

package cluster

import (
	"sync"
	"time"
)

// Breaker states, exposed for logs and tests.
const (
	BreakerClosed   = "closed"
	BreakerOpen     = "open"
	BreakerHalfOpen = "half-open"
)

// BreakerConfig tunes the per-peer circuit breakers; zero fields take
// NewBreaker's defaults (10 / 3 / 0.5 / 5s).
type BreakerConfig struct {
	// Window is the sliding count of recent call outcomes judged.
	Window int
	// MinSamples gates opening: fewer outcomes than this is no trend.
	MinSamples int
	// FailureRatio opens the breaker when failures/outcomes reaches it.
	FailureRatio float64
	// OpenFor is how long an open breaker short-circuits before
	// half-opening for one probe call.
	OpenFor time.Duration
}

// Breaker is a set of per-peer circuit breakers. Each peer's breaker is
// a classic three-state machine driven by call outcomes:
//
//	closed    — calls flow; a failure rate >= FailureRatio over the
//	            sliding window (with >= MinSamples outcomes) opens it.
//	open      — calls short-circuit (Allow returns false) for OpenFor,
//	            so a dead peer costs a map lookup instead of a timeout.
//	half-open — after OpenFor, exactly one caller is let through as the
//	            probe; its success closes the breaker, its failure
//	            re-opens for another OpenFor.
//
// Peers are isolated: peer A's failures never open peer B's breaker.
// All methods are safe for concurrent use. The clock is injectable so
// tests drive state transitions without sleeping.
type Breaker struct {
	cfg BreakerConfig
	now func() time.Time

	// onOpen, when set, is called (outside the lock) each time a peer's
	// breaker trips open — the metrics hook.
	onOpen func(peer string)

	mu    sync.Mutex
	peers map[string]*breakerPeer
}

type breakerPeer struct {
	state    string
	outcomes []bool // ring of recent call results, true = success
	pos      int
	filled   bool
	openedAt time.Time
	probing  bool // a half-open probe is in flight
}

// NewBreaker builds a breaker set. A nil now selects time.Now.
func NewBreaker(cfg BreakerConfig, now func() time.Time, onOpen func(peer string)) *Breaker {
	if cfg.Window <= 0 {
		cfg.Window = 10
	}
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = 3
	}
	if cfg.FailureRatio <= 0 {
		cfg.FailureRatio = 0.5
	}
	if cfg.OpenFor <= 0 {
		cfg.OpenFor = 5 * time.Second
	}
	if now == nil {
		now = time.Now
	}
	return &Breaker{cfg: cfg, now: now, onOpen: onOpen, peers: make(map[string]*breakerPeer)}
}

func (b *Breaker) peer(id string) *breakerPeer {
	p, ok := b.peers[id]
	if !ok {
		p = &breakerPeer{state: BreakerClosed, outcomes: make([]bool, b.cfg.Window)}
		b.peers[id] = p
	}
	return p
}

// Allow reports whether a call to peer may proceed. probe is true when
// the call is the single half-open trial: the caller MUST follow it
// with Record(peer, outcome) so the breaker can resolve the probe
// (every allowed call should be Recorded; for the probe it is load-
// bearing, since an unresolved probe would wedge the breaker half-open
// until another OpenFor elapses).
func (b *Breaker) Allow(peer string) (ok, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	p := b.peer(peer)
	switch p.state {
	case BreakerClosed:
		return true, false
	case BreakerOpen:
		if b.now().Sub(p.openedAt) < b.cfg.OpenFor {
			return false, false
		}
		p.state = BreakerHalfOpen
		p.probing = true
		return true, true
	default: // half-open
		if p.probing {
			// The probe slot is taken; everyone else still short-circuits.
			return false, false
		}
		p.probing = true
		return true, true
	}
}

// Record feeds one call outcome into peer's breaker.
func (b *Breaker) Record(peer string, success bool) {
	var opened string
	b.mu.Lock()
	p := b.peer(peer)
	switch p.state {
	case BreakerHalfOpen:
		p.probing = false
		if success {
			// The peer answered: close and forget the bad run, so the
			// next failure is judged against a fresh window.
			p.state = BreakerClosed
			p.reset()
		} else {
			p.state = BreakerOpen
			p.openedAt = b.now()
			opened = peer
		}
	case BreakerClosed:
		p.push(success)
		fails, total := p.tally()
		if total >= b.cfg.MinSamples && float64(fails)/float64(total) >= b.cfg.FailureRatio {
			p.state = BreakerOpen
			p.openedAt = b.now()
			opened = peer
		}
	default: // open: a straggler from before the trip; nothing to judge
	}
	b.mu.Unlock()
	if opened != "" && b.onOpen != nil {
		b.onOpen(opened)
	}
}

// State reports peer's current breaker state (open breakers past their
// OpenFor report half-open only once a probe claims the slot via Allow).
func (b *Breaker) State(peer string) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.peer(peer).state
}

// OpenCount reports how many peers are currently open or half-open —
// the hydro_cluster_breakers_open gauge.
func (b *Breaker) OpenCount() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var n int64
	for _, p := range b.peers {
		if p.state != BreakerClosed {
			n++
		}
	}
	return n
}

func (p *breakerPeer) push(success bool) {
	p.outcomes[p.pos] = success
	p.pos++
	if p.pos == len(p.outcomes) {
		p.pos = 0
		p.filled = true
	}
}

func (p *breakerPeer) tally() (fails, total int) {
	total = p.pos
	if p.filled {
		total = len(p.outcomes)
	}
	for i := 0; i < total; i++ {
		if !p.outcomes[i] {
			fails++
		}
	}
	return fails, total
}

func (p *breakerPeer) reset() {
	p.pos = 0
	p.filled = false
	p.probing = false
}

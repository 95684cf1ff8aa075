// Package faultinject provides explicitly armed failpoints for
// crash-safety testing: named hooks compiled into the serving path
// that do nothing unless a test arms them with Set.
//
// A failpoint is a (name, charges, arg) triple: each Hit consumes one
// charge and reports whether the point fired, plus the configured
// integer argument (e.g. a sleep duration in milliseconds for
// slow-worker).
//
// The disarmed fast path is one atomic load, so leaving the hooks in
// production builds costs nothing measurable.
package faultinject

import (
	"sync"
	"sync/atomic"
)

// Failpoint names wired into the serving path.
const (
	// JournalAppendErr makes journal.Append fail without writing.
	JournalAppendErr = "journal-append-error"
	// JournalTornWrite makes journal.Append write a truncated frame
	// and then fail — the on-disk state a crash mid-write leaves.
	JournalTornWrite = "journal-torn-write"
	// CacheSpillErr makes result-cache disk spills fail.
	CacheSpillErr = "cache-spill-error"
	// SlowWorker makes a worker sleep arg milliseconds before running
	// a job (default 100 when arg is 0).
	SlowWorker = "slow-worker"
	// PanicOnEpoch panics inside the per-epoch progress callback — a
	// stand-in for a simulation bug — exercising worker panic
	// isolation and poison-job quarantine.
	PanicOnEpoch = "panic-on-epoch"
	// PeerError makes the next cluster proxy call to a peer fail
	// without touching the wire — the hook chaos tests use to trip a
	// circuit breaker deterministically.
	PeerError = "peer-error"
	// DiskCritical makes the disk-watermark check read arg bytes of
	// free space instead of asking the filesystem, exercising the
	// refuse-durable-acks (503) and spill-pruning paths.
	DiskCritical = "disk-critical"
)

type point struct {
	remaining int
	arg       int
}

var (
	mu     sync.Mutex
	points = map[string]*point{}
	// armed short-circuits Hit when nothing is configured, keeping the
	// production cost of a compiled-in failpoint to one atomic load.
	armed atomic.Bool
)

// Set arms name to fire for the next n hits with the given argument.
// n <= 0 disarms the point.
func Set(name string, n, arg int) {
	mu.Lock()
	defer mu.Unlock()
	if n <= 0 {
		delete(points, name)
	} else {
		points[name] = &point{remaining: n, arg: arg}
	}
	armed.Store(len(points) > 0)
}

// Reset disarms every failpoint.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	points = map[string]*point{}
	armed.Store(false)
}

// Hit consumes one charge of name. fired reports whether the point was
// armed; arg is its configured argument (0 when unset).
func Hit(name string) (arg int, fired bool) {
	if !armed.Load() {
		return 0, false
	}
	mu.Lock()
	defer mu.Unlock()
	p, ok := points[name]
	if !ok {
		return 0, false
	}
	p.remaining--
	if p.remaining <= 0 {
		delete(points, name)
		armed.Store(len(points) > 0)
	}
	return p.arg, true
}

// Package serve is the simulation-as-a-service layer: an HTTP/JSON API
// over the simulator with a bounded job queue, a worker pool, a
// content-addressed result cache (SHA-256 of the canonical job
// payload) with singleflight dedupe and LRU + disk-spill eviction,
// live per-epoch progress streaming over SSE, cancellation, graceful
// drain, and Prometheus-text metrics.
//
// Sweep-style studies (the per-configuration tuning sweeps of Vaverka
// et al. and the batch characterization campaigns of Schieffer et al.)
// re-run near-identical configurations that differ in a single knob;
// against a warm daemon every repeated (config, design, combo) point
// is a cache hit, and concurrent identical submissions share one
// simulation.
//
// Endpoints:
//
//	POST   /v1/jobs                submit {config?, design, combo}; dedupes
//	GET    /v1/jobs                list job records
//	GET    /v1/jobs/{id}           status + result when done; a done
//	                               job's ETag is its content-addressed
//	                               ID, and If-None-Match yields 304
//	DELETE /v1/jobs/{id}           cancel a queued or running job
//	GET    /v1/jobs/{id}/events    SSE per-epoch progress stream
//	GET    /v1/jobs/{id}/telemetry epoch telemetry: JSON snapshot,
//	                               ?format=csv, or ?stream=1 for SSE
//	GET    /v1/designs             design names
//	GET    /v1/combos              Table II combo IDs
//	GET    /livez                  liveness: 200 while the process serves
//	GET    /readyz                 readiness: 503 while draining or replaying;
//	                               clustered daemons stay 200 with
//	                               degraded:true + per-peer state when a
//	                               peer is unreachable
//	GET    /metrics                Prometheus text format
//	GET    /v1/peerz               cluster only: self status + the view
//	                               of every peer (gossip surface)
//	POST   /v1/steal               cluster only: hand one queued job to
//	                               the idle peer named by X-Hydro-Forwarded
//
// Clustering (Options.Cluster): N daemons with a static member list
// form one deduplicating tier. Content-addressed job IDs route to a
// rendezvous-hash owner (internal/chash); non-owners proxy submissions
// and polls to it (loop-guarded by X-Hydro-Forwarded) and fill their
// local caches from peer responses, so a hit anywhere is a hit
// everywhere with identical result bytes and ETag. Relayed responses
// carry X-Hydro-Peer/X-Hydro-Peer-Url; every clustered response carries
// X-Hydro-Self. When the owner dies mid-job, the daemon that forwarded
// the submission promotes the job into its own journal-backed queue —
// the 202-implies-replayable contract survives owner loss.
//
// Crash safety: with Options.JournalPath set, every accepted job is
// recorded in an append-only CRC-framed journal (internal/journal)
// before the submitter sees 202, and every state transition after it.
// A restarted daemon replays the journal, re-enqueues jobs that were
// queued or running at crash time (content-addressed job IDs make the
// replay idempotent against the result cache), and compacts the log.
// Worker panics are recovered into failed job records, and a job ID
// that keeps failing is quarantined so a poison config cannot
// crash-loop the daemon.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"time"

	"github.com/hydrogen-sim/hydrogen/internal/obs"
	"github.com/hydrogen-sim/hydrogen/internal/system"
	"github.com/hydrogen-sim/hydrogen/internal/workloads"
)

// ComboSpec identifies a job's workload combination: a Table II combo
// ID ("C1".."C12"), an inline custom assignment, or both (an inline
// assignment with a label). In JSON it unmarshals from either a bare
// string or the object form.
type ComboSpec struct {
	ID  string   `json:"id,omitempty"`
	CPU []string `json:"cpu,omitempty"`
	GPU string   `json:"gpu,omitempty"`
}

// UnmarshalJSON accepts "C1" as shorthand for {"id":"C1"}.
func (c *ComboSpec) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var id string
		if err := json.Unmarshal(b, &id); err != nil {
			return err
		}
		*c = ComboSpec{ID: id}
		return nil
	}
	type raw ComboSpec // drop methods to avoid recursion
	var r raw
	if err := json.Unmarshal(b, &r); err != nil {
		return err
	}
	*c = ComboSpec(r)
	return nil
}

// resolve expands the spec to a runnable combo plus its canonical form:
// a bare known ID becomes the full Table II definition, so "C1" and the
// equivalent inline spec hash to the same cache key.
func (c ComboSpec) resolve() (workloads.Combo, ComboSpec, error) {
	if len(c.CPU) == 0 && c.GPU == "" {
		combo, err := workloads.ComboByID(c.ID)
		if err != nil {
			return workloads.Combo{}, c, err
		}
		return combo, ComboSpec{ID: combo.ID, CPU: combo.CPU, GPU: combo.GPU}, nil
	}
	id := c.ID
	if id == "" {
		id = "custom"
	}
	combo := workloads.Combo{ID: id, CPU: c.CPU, GPU: c.GPU}
	return combo, ComboSpec{ID: id, CPU: c.CPU, GPU: c.GPU}, nil
}

// Duration wraps time.Duration for the wire: it marshals as a Go
// duration string ("1m30s") and unmarshals from either that form or a
// bare number of seconds.
type Duration time.Duration

// MarshalJSON renders the duration as a Go duration string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "30s" or a bare number of seconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return err
		}
		*d = Duration(v)
		return nil
	}
	var secs float64
	if err := json.Unmarshal(b, &secs); err != nil {
		return err
	}
	*d = Duration(secs * float64(time.Second))
	return nil
}

// JobRequest is the POST /v1/jobs payload. Config is a full
// system.Config (it round-trips JSON losslessly); when omitted the
// daemon's default configuration is used — system.Quick(), or
// system.Paper() when Paper is set. Cycles and Seed, when nonzero,
// override the corresponding config fields, so sweep clients can vary
// one knob without shipping the whole config.
//
// Timeout, when positive, is a per-job execution deadline measured
// from the moment a worker starts the job; it is enforced at epoch
// boundaries through the simulation's context plumbing and surfaces
// as the deadline_exceeded terminal state. The timeout is not part of
// the job's content address: identical configurations share one job
// and the first-submitted timeout governs the run.
type JobRequest struct {
	Config  *system.Config `json:"config,omitempty"`
	Paper   bool           `json:"paper,omitempty"`
	Cycles  uint64         `json:"cycles,omitempty"`
	Seed    int64          `json:"seed,omitempty"`
	Design  string         `json:"design"`
	Combo   ComboSpec      `json:"combo"`
	Timeout Duration       `json:"timeout,omitempty"`
}

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
	// StateDeadline marks a job stopped by its own timeout — distinct
	// from canceled so sweep clients can tell "I asked it to stop"
	// from "it ran out of budget".
	StateDeadline = "deadline_exceeded"
)

// JobStatus is the wire representation of a job record. Result is the
// cached marshaling of the run's system.Results — byte-identical across
// cache hits — present only once the job is done.
type JobStatus struct {
	ID     string    `json:"id"`
	State  string    `json:"state"`
	Design string    `json:"design"`
	Combo  ComboSpec `json:"combo"`

	// Cached marks a submission answered from the result cache without
	// queueing; Deduped marks one coalesced onto an identical in-flight
	// job (singleflight); Replayed marks a job re-enqueued from the
	// durable journal after a restart.
	Cached   bool `json:"cached,omitempty"`
	Deduped  bool `json:"deduped,omitempty"`
	Replayed bool `json:"replayed,omitempty"`

	// Timeout is the job's execution deadline, when one was set.
	Timeout Duration `json:"timeout,omitempty"`

	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitzero"`
	FinishedAt  time.Time `json:"finished_at,omitzero"`

	Epochs int    `json:"epochs"` // progress samples taken so far
	Error  string `json:"error,omitempty"`

	// Spans are the job's finished timing intervals (queue wait, journal
	// start record, the run itself, cache put, journal terminal record),
	// in completion order; a stolen job's owner lists the spans its thief
	// recorded. They are not journaled, so a replayed or promoted job
	// lists only the spans recorded since.
	Spans []obs.SpanRecord `json:"spans,omitempty"`

	Result json.RawMessage `json:"result,omitempty"`
}

// CacheKey derives a job's content address: the SHA-256 of the
// canonical JSON encoding of (normalized config, design, resolved
// combo). The config is canonicalized with system.Canonical and its
// per-run workload-assignment fields cleared (RunDesign re-derives them
// from the combo), so configs that simulate identically share a key.
// encoding/json emits struct fields in declaration order, which makes
// the encoding deterministic.
func CacheKey(cfg system.Config, design string, combo ComboSpec) string {
	c := system.Canonical(cfg)
	c.CPUProfiles = nil
	c.GPUProfile = ""
	payload, err := json.Marshal(struct {
		Config system.Config `json:"config"`
		Design string        `json:"design"`
		Combo  ComboSpec     `json:"combo"`
	}{c, design, combo})
	if err != nil {
		// system.Config contains only plain data; Marshal cannot fail.
		panic("serve: marshal cache key: " + err.Error())
	}
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

// Package serve is the simulation-as-a-service layer: an HTTP/JSON API
// over the simulator with a bounded job queue, a worker pool,
// content-addressed results (SHA-256 of the canonical job payload) with
// singleflight dedupe, kept with their job records and optionally
// written through to a directory (Options.CacheDir), per-epoch
// telemetry snapshots, cancellation, graceful drain, and Prometheus-text
// metrics. Clients follow a job by polling its status and telemetry.
//
// Sweep-style studies (the per-configuration tuning sweeps of Vaverka
// et al. and the batch characterization campaigns of Schieffer et al.)
// re-run near-identical configurations that differ in a single knob;
// against a warm daemon every repeated (config, design, combo) point
// is a cache hit, and concurrent identical submissions share one
// simulation.
//
// A design is data: "design" names an alias of system.Designs(), or is
// "Hydrogen" with a "hydrogen" object of system.HydrogenOptions. The
// content address hashes the model version and the canonical spec, so
// an alias and its spelled-out options are one job.
//
// Endpoints:
//
//	POST   /v1/jobs                submit {config?, design, hydrogen?,
//	                               combo}; dedupes; a body over 1 MiB
//	                               is refused with 413
//	GET    /v1/jobs                list job statuses, without results
//	GET    /v1/jobs/{id}           status + result when done; a done
//	                               job's ETag is its content-addressed
//	                               ID, and If-None-Match yields 304
//	DELETE /v1/jobs/{id}           cancel a queued or running job
//	GET    /v1/jobs/{id}/telemetry epoch telemetry: JSON snapshot, or
//	                               ?format=csv
//	GET    /v1/designs             design names
//	GET    /v1/combos              Table II combo IDs
//	GET    /livez                  liveness: 200 while the process serves
//	GET    /readyz                 readiness: 503 while draining
//	GET    /metrics                Prometheus text format
//
// Clustering (Options.Cluster): N daemons with a static member list
// form one deduplicating tier. Content-addressed job IDs route to a
// rendezvous-hash owner (internal/chash), and only the owner runs a
// job. Every other member is a stateless relay for it: submissions and
// polls go to the owner (loop-guarded by X-Hydro-Forwarded), and the
// relayed response carries the owner's status, body, ETag and
// Retry-After and nothing else, so a client cannot tell which member
// answered and need not care. While the owner cannot be reached the
// relay answers 503 + Retry-After and keeps nothing; the 202 a client
// holds is the owner's journal's promise, kept when the owner
// restarts and replays.
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

// resolve returns the spec's canonical form, which converts to the
// runnable workloads.Combo: a bare known ID becomes the full Table II
// definition, so "C1" and the equivalent inline spec hash to the same
// cache key.
func (c ComboSpec) resolve() (ComboSpec, error) {
	if len(c.CPU) == 0 && c.GPU == "" {
		combo, err := workloads.ComboByID(c.ID)
		if err != nil {
			return c, err
		}
		return ComboSpec(combo), nil
	}
	if c.ID == "" {
		c.ID = "custom"
	}
	return c, nil
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

// JobRequest is the POST /v1/jobs payload. Design is a name of
// system.Designs(), or "Hydrogen" run under the Hydrogen options when
// they are set; options that do not fit the config are a 400. Config
// is a full system.Config (it round-trips JSON losslessly); when
// omitted the daemon's default configuration is used — system.Quick(),
// or system.Paper() when Paper is set. Cycles and Seed, when nonzero,
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
	Config   *system.Config          `json:"config,omitempty"`
	Paper    bool                    `json:"paper,omitempty"`
	Cycles   uint64                  `json:"cycles,omitempty"`
	Seed     int64                   `json:"seed,omitempty"`
	Design   string                  `json:"design"`
	Hydrogen *system.HydrogenOptions `json:"hydrogen,omitempty"`
	Combo    ComboSpec               `json:"combo"`
	Timeout  Duration                `json:"timeout,omitempty"`
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
// cache hits — present only once the job is done. Design names the
// job's alias when one expands to its spec; otherwise it is "Hydrogen"
// and Hydrogen carries the options.
type JobStatus struct {
	ID       string                  `json:"id"`
	State    string                  `json:"state"`
	Design   string                  `json:"design"`
	Hydrogen *system.HydrogenOptions `json:"hydrogen,omitempty"`
	Combo    ComboSpec               `json:"combo"`

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
	// in completion order. They are not journaled, so a replayed job
	// lists only the spans recorded since.
	Spans []obs.SpanRecord `json:"spans,omitempty"`

	Result json.RawMessage `json:"result,omitempty"`
}

// CacheKey is the content address (system.ContentAddress) of a
// named-design job: the job ID the daemon gives a request naming
// design with no options.
func CacheKey(cfg system.Config, design string, combo ComboSpec) string {
	d, _ := system.ParseDesign(design, nil)
	return system.ContentAddress(system.ModelVersion, cfg, d, workloads.Combo(combo))
}

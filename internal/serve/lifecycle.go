package serve

// The job lifecycle, with no knowledge of the wire: handlers, the
// journal replay and the cluster loops are adapters that build a
// submission, call intake, and translate what comes back. Three entries
// feed intake — local submit (acceptLocal), startup replay (recover),
// a forwarded job whose owner died (promoteForwarded) — and every job
// ends in terminate. DESIGN.md §10 has the state diagram. Three
// ordering rules hold on every path:
//
//  1. Submit record before 202: intake fsyncs the submit record before
//     it reports the job accepted, so an acknowledged job survives
//     kill -9 and replays.
//  2. Cache put before terminal record: a result is stored under the
//     job's content address before terminate journals "done", so a crash
//     between the two replays into a cache hit (synthesizeDoneLocked),
//     not a second simulation.
//  3. Neutralize on any post-durable refusal: a job intake turns away
//     after its submit record reached the disk gets a canceled record
//     appended, so a restart never resurrects work whose submitter was
//     told no.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/hydrogen-sim/hydrogen/internal/obs"
	"github.com/hydrogen-sim/hydrogen/internal/system"
	"github.com/hydrogen-sim/hydrogen/internal/workloads"
)

// submission is a fully resolved request to run one simulation: what
// every entry hands to intake, and what a front remembers about a job
// it proxied out.
type submission struct {
	id      string // content address: specKey(model, cfg, design, spec)
	cfg     system.Config
	design  system.DesignSpec
	combo   workloads.Combo
	spec    ComboSpec
	timeout time.Duration // execution deadline, 0 = none

	// reqID is the original request's X-Request-ID, kept across proxy
	// and failover hops so every node's logs join up.
	reqID string

	// replayed marks a job coming back from this daemon's own journal:
	// already durable, already acknowledged, so intake neither journals
	// it again nor lets queue depth refuse it.
	replayed bool
}

// job is one submission's record. Its identity is its cache key, which
// is what makes dedupe structural: an identical submission cannot mint
// a second job while the first is in flight.
type job struct {
	// Copied from the submission at mint, immutable afterwards.
	id       string
	cfg      system.Config
	design   system.DesignSpec
	combo    workloads.Combo
	spec     ComboSpec
	timeout  time.Duration
	replayed bool
	reqID    string

	// telem and trace carry their own locks: handlers snapshot them
	// without j.mu, and the worker records spans into trace while
	// handlers hold j.mu in snapshot().
	telem *obs.Ring
	trace *obs.Trace

	mu        sync.Mutex
	state     string
	err       string
	submitted time.Time
	started   time.Time
	finished  time.Time
	epochs    int // progress samples taken so far
	cancel    context.CancelFunc
	result    []byte
	refused   *refusal      // why intake abandoned the job, if it did
	done      chan struct{} // closed on any terminal state

	// durable is closed once the job's fate at the durability barrier is
	// known: its submit record is fsynced, or intake has abandoned it
	// (refused is then set). Singleflight attachers wait on it, so no
	// dedup ack rests on a frame that may not exist after a crash.
	durable chan struct{}

	// encMu guards the memoized wire encoding of the terminal status,
	// built once after the job completes and then served as raw bytes
	// with Content-Length — the pre-encoded hit path. One shared buffer
	// backs both the GET /v1/jobs/{id} body and the POST cache-hit body
	// (Cached=true); see jobEnc.
	encMu sync.Mutex
	enc   *jobEnc
}

// refusalKind names why intake turned a submission away.
type refusalKind int

const (
	refusedDraining refusalKind = iota + 1
	refusedQuarantined
	refusedDiskLow
	refusedJournal
	refusedQueueFull
)

// refusal is intake's typed "no". It is an error so an adapter with
// nobody to answer can simply log it; the ones with a client map the
// kind onto a status code.
type refusal struct {
	kind refusalKind
	err  error // refusedJournal: the append failure
	n    int   // refusedQuarantined: failures counted; refusedQueueFull: queue depth
}

func (r *refusal) Error() string {
	switch r.kind {
	case refusedDraining:
		return "draining: not accepting new jobs"
	case refusedQuarantined:
		return fmt.Sprintf("job quarantined after %d failures; refusing to run it again", r.n)
	case refusedDiskLow:
		return "disk critically low: refusing durable work"
	case refusedJournal:
		return fmt.Sprintf("journal write failed: %v", r.err)
	default:
		return fmt.Sprintf("job queue full (%d deep)", r.n)
	}
}

// msgShutdown is the cancellation reason written into jobs that end
// without running because the daemon is shutting down.
const msgShutdown = "canceled: server shutting down"

// reusableLocked returns the record already answering for id, if it is
// worth attaching to: a queued or running job (singleflight), or a done
// one whose result is still recoverable. Any other record is replaced
// by a fresh attempt. s.mu must be held.
func (s *Server) reusableLocked(id string) *job {
	j, ok := s.jobs[id]
	if !ok {
		return nil
	}
	switch j.snapshot().State {
	case StateQueued, StateRunning:
		return j
	case StateDone:
		if s.encodedDone(j, true) != nil {
			return j
		}
	}
	return nil
}

// refusalLocked reports why no new durable job may be minted for id
// right now, nil when one may. s.mu must be held.
func (s *Server) refusalLocked(id string) *refusal {
	switch n := s.failCount[id]; {
	case s.draining:
		return &refusal{kind: refusedDraining}
	case n >= s.opts.QuarantineAfter:
		return &refusal{kind: refusedQuarantined, n: n}
	case s.diskCritical.Load() && s.opts.JournalPath != "":
		// Accepting now would promise a journal write the disk is about
		// to refuse; turning the job away first is the honest order.
		return &refusal{kind: refusedDiskLow}
	}
	return nil
}

// mintLocked creates and registers a queued job record; s.mu must be
// held. A pre-existing record under the same key is replaced.
func (s *Server) mintLocked(sub *submission) *job {
	j := &job{
		id:        sub.id,
		cfg:       sub.cfg,
		design:    sub.design,
		combo:     sub.combo,
		spec:      sub.spec,
		timeout:   sub.timeout,
		replayed:  sub.replayed,
		reqID:     sub.reqID,
		telem:     obs.NewRing(s.opts.TelemetryPoints),
		trace:     obs.NewTrace(),
		state:     StateQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
		durable:   make(chan struct{}),
	}
	if _, existed := s.jobs[j.id]; !existed {
		s.order = append(s.order, j.id)
	}
	s.jobs[j.id] = j
	return j
}

// intake is the one way a job enters the queue. It attaches to a record
// that already answers for the ID (fresh is then false), refuses with a
// typed reason, or mints the job, makes it durable and queues it.
func (s *Server) intake(sub *submission) (j *job, fresh bool, ref *refusal) {
	s.mu.Lock()
	if j := s.reusableLocked(sub.id); j != nil {
		s.mu.Unlock()
		return j, false, nil
	}
	if ref := s.refusalLocked(sub.id); ref != nil {
		s.mu.Unlock()
		if ref.kind == refusedDiskLow {
			s.m.diskLowRejects.Add(1)
		}
		return nil, false, ref
	}
	j = s.mintLocked(sub)
	s.mu.Unlock()

	// Durability barrier (rule 1). The fsync runs OUTSIDE s.mu, so no
	// disk round trip holds the server lock (and a compaction, which
	// takes s.mu under the journal's lock, cannot deadlock against it);
	// attachers that found the job meanwhile block on j.durable until
	// the fate of this record is known.
	if !sub.replayed {
		if err := s.appendRecord(j.submitRecord()); err != nil {
			ref = &refusal{kind: refusedJournal, err: err}
			s.abandonJob(j, ref)
			close(j.durable)
			return nil, false, ref
		}
	}
	close(j.durable)

	s.mu.Lock()
	switch {
	case s.draining:
		// Drain closed the queue while the record was being flushed.
		ref = &refusal{kind: refusedDraining}
	case sub.replayed:
		// A journaled 202 is a promise: queue depth never turns replayed
		// work away, and only a closed queue (draining, ruled out just
		// above) refuses ForcePush.
		s.queue.ForcePush(j)
	case !s.queue.Push(j):
		ref = &refusal{kind: refusedQueueFull, n: s.opts.QueueDepth}
	}
	s.mu.Unlock()
	if ref != nil {
		s.abandonJob(j, ref)
		// Rule 3: the submit record is live on disk; neutralize it.
		if err := s.appendRecord(journalRecord{Type: StateCanceled, ID: j.id, Error: "canceled: " + ref.Error()}); err != nil {
			// A restart will now resurrect a job its submitter was told
			// to retry elsewhere; make that observable.
			s.logj(j.id, "journal cancel failed", "err", err)
		}
		return nil, false, ref
	}
	s.m.enqueued.Add(1)
	s.m.queued.Add(1)
	return j, true, nil
}

// submitRecord is the job's journal submit record: everything needed
// to re-run it after a crash without the original request. Written by
// intake and rewritten by live compaction, so both agree on every field.
func (j *job) submitRecord() journalRecord {
	return journalRecord{
		Type:     recSubmit,
		ID:       j.id,
		Config:   &j.cfg,
		Design:   j.design.Policy,
		Hydrogen: j.design.Options(),
		Combo:    &j.spec,
		Timeout:  Duration(j.timeout),
	}
}

// synthesizeDoneLocked registers a finished job for a result that
// already exists — found in the spill directory, left behind by a crash
// between cache put and terminal record (rule 2), or filled from a
// peer — so every later hit is answered locally. The record describes
// the result, not the request that happened to find it: it carries no
// request ID, and since nothing ran here nothing is journaled.
// s.mu must be held.
func (s *Server) synthesizeDoneLocked(sub *submission, result []byte) *job {
	found := *sub
	found.reqID = ""
	j := s.mintLocked(&found)
	close(j.durable)
	j.state = StateDone
	j.finished = time.Now()
	j.result = result
	close(j.done)
	return j
}

// terminate is the one way a job ends. The transition out of from is
// claimed under j.mu, so of two racing terminators (cancel against
// worker pop, two cancels) one wins and the other gets false and does
// nothing. The winner journals the terminal record, does all the
// accounting a job's end implies, and wakes waiters. A result must
// already be in the cache (rule 2).
func (s *Server) terminate(j *job, from, state, errMsg string, result []byte) bool {
	journal := func() {
		if err := s.appendRecord(journalRecord{Type: state, ID: j.id, Error: errMsg}); err != nil {
			s.logj(j.id, "journal append failed", "state", state, "err", err)
		}
	}
	if from == StateRunning {
		// Only its worker ends a running job, so the claim cannot be
		// lost and the record can go first: the terminal status is then
		// never visible without its journal.terminal span.
		tspan := obs.StartSpan("journal.terminal")
		journal()
		tspan.EndInto(j.trace)
	}
	j.mu.Lock()
	if j.state != from {
		j.mu.Unlock()
		return false
	}
	// The counters move before the terminal state is visible, so whoever
	// sees the job end also sees its accounting.
	if from == StateQueued {
		s.m.queued.Add(-1) // a queued job still holds its gauge slot
	}
	switch state {
	case StateDone:
		s.m.completed.Add(1)
	case StateFailed:
		s.m.failed.Add(1)
	case StateCanceled:
		s.m.canceled.Add(1)
	case StateDeadline:
		s.m.deadlined.Add(1)
	}
	s.m.jobLatency.Observe(time.Since(j.submitted).Seconds())
	j.finish(state, errMsg, result)
	j.mu.Unlock()
	if from == StateQueued {
		journal()
	}
	if state == StateFailed {
		s.noteFailure(j.id) // takes s.mu, which orders before j.mu
	}
	return true
}

// cancelJob stops j wherever it is in its life: a queued job is
// terminated on the spot with reason, a running one has its context
// canceled (its worker terminates it at the next epoch boundary). It
// returns the state it acted on; terminal means nothing was left to stop.
func (s *Server) cancelJob(j *job, reason string) string {
	for {
		j.mu.Lock()
		state, cancel := j.state, j.cancel
		j.mu.Unlock()
		switch {
		case state == StateQueued && !s.terminate(j, StateQueued, StateCanceled, reason, nil):
			continue // a worker or another canceler got there first; look again
		case state == StateRunning:
			cancel()
		}
		return state
	}
}

// noteFailure counts a failed attempt toward quarantine. Crossing the
// threshold quarantines the ID: submissions are refused and a restart
// will not replay it, so a config that panics the simulator cannot
// crash-loop the daemon no matter how persistent the client.
func (s *Server) noteFailure(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failCount[id]++
	if s.failCount[id] == s.opts.QuarantineAfter {
		s.m.quarantined.Add(1)
		s.logj(id, "quarantined", "failures", s.failCount[id])
	}
}

// abandonJob removes a job intake minted but will never run from the
// table and finishes it, so dedup attachers are released — with the
// refusal its submitter got — rather than left waiting on a job no
// worker will ever pop.
func (s *Server) abandonJob(j *job, ref *refusal) {
	j.mu.Lock()
	if j.state == StateQueued {
		j.refused = ref
		j.finish(StateCanceled, "canceled: "+ref.Error(), nil)
	}
	j.mu.Unlock()
	s.mu.Lock()
	if s.jobs[j.id] == j {
		delete(s.jobs, j.id)
	}
	s.mu.Unlock()
}

// finish moves the job to a terminal state and wakes waiters. j.mu
// must be held, and the caller must have checked that the job is not
// terminal yet: a job finishes once.
func (j *job) finish(state, errMsg string, result []byte) {
	j.state = state
	j.err = errMsg
	j.result = result
	j.finished = time.Now()
	close(j.done)
}

// countEpoch records that the run took one more progress sample.
func (j *job) countEpoch() {
	j.mu.Lock()
	j.epochs++
	j.mu.Unlock()
}

func (j *job) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.id,
		State:       j.state,
		Design:      j.design.Name(),
		Combo:       j.spec,
		Replayed:    j.replayed,
		Timeout:     Duration(j.timeout),
		SubmittedAt: j.submitted,
		StartedAt:   j.started,
		FinishedAt:  j.finished,
		Epochs:      j.epochs,
		Error:       j.err,
		Spans:       j.trace.Records(),
	}
	if st.Design == "" {
		st.Design, st.Hydrogen = j.design.Policy, j.design.Options()
	}
	if j.state == StateDone {
		st.Result = j.result
	}
	return st
}

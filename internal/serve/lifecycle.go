package serve

// The job lifecycle, with no knowledge of the wire: handlers, the
// journal replay and the cluster loops are adapters that build a
// submission, call intake, and translate what comes back. Four entries
// feed intake — local submit (acceptLocal), startup replay (recover),
// a job stolen from a saturated peer (adoptStolen), a forwarded job
// whose owner died (promoteForwarded) — and every job ends in
// terminate. DESIGN.md §10 has the state diagram. Three ordering rules
// hold on every path:
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
	id      string // content address: CacheKey(cfg, design, spec)
	cfg     system.Config
	design  string
	combo   workloads.Combo
	spec    ComboSpec
	timeout time.Duration // execution deadline, 0 = none

	// Identity of the original request, kept across proxy, steal and
	// failover hops so every node's logs and spans join up.
	reqID string
	tc    obs.TraceContext

	// replayed marks a job coming back from this daemon's own journal:
	// already durable, already acknowledged, so intake neither journals
	// it again nor lets queue depth refuse it.
	replayed bool
	// via names the hop that brought the job here when it was not a
	// client ("promote"); stamped as a zero-length span at mint so the
	// merged trace shows which node picked the job up.
	via string
}

// job is one submission's record. Its identity is its cache key, which
// is what makes dedupe structural: an identical submission cannot mint
// a second job while the first is in flight.
type job struct {
	// Copied from the submission at mint, immutable afterwards.
	id       string
	cfg      system.Config
	design   string
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
	stolen    bool // popped off the queue and running on a peer
	err       string
	submitted time.Time
	started   time.Time
	finished  time.Time
	epochs    []system.EpochSample
	epochSubs topic[system.EpochSample]
	telemSubs topic[obs.EpochPoint]
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
	j.trace.SetContext(sub.tc, s.node) // no-op for an untraced submission
	if sub.via != "" {
		j.trace.AddInterval(sub.via, j.submitted, 0)
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

	// Durability barrier (rule 1). The fsync runs OUTSIDE s.mu so
	// concurrent submissions share group-commit batches in the journal
	// instead of serializing one fsync each behind the server lock;
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
// intake and rewritten by live compaction, so both agree on every field
// — including the spans a promoted job carried in with it.
func (j *job) submitRecord() journalRecord {
	return journalRecord{
		Type:    recSubmit,
		ID:      j.id,
		Config:  &j.cfg,
		Design:  j.design,
		Combo:   &j.spec,
		Timeout: Duration(j.timeout),
		Spans:   j.tracedSpans(),
	}
}

// synthesizeDoneLocked registers a finished job for a result that
// already exists — found in the spill directory, left behind by a crash
// between cache put and terminal record (rule 2), or filled from a
// peer — so every later hit is answered locally. The record describes
// the result, not the request that happened to find it: it carries no
// request ID or trace, and since nothing ran here nothing is journaled.
// s.mu must be held.
func (s *Server) synthesizeDoneLocked(sub *submission, result []byte) *job {
	found := *sub
	found.reqID, found.tc = "", obs.TraceContext{}
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
// worker pop, a thief's report against a local cancel) one wins and the
// other gets false and does nothing. The winner journals the terminal
// record with the job's spans, wakes waiters, and does all the
// accounting a job's end implies. A result must already be in the cache
// (rule 2).
func (s *Server) terminate(j *job, from, state, errMsg string, result []byte) bool {
	journal := func() {
		// The record carries the span list so a job that migrates
		// (steal, failover promotion) or replays keeps its trace history.
		if err := s.appendRecord(journalRecord{Type: state, ID: j.id, Error: errMsg, Spans: j.tracedSpans()}); err != nil {
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
	// A queued job still holds its slot in the queued gauge unless a
	// thief's pop already released it.
	held := from == StateQueued && !j.stolen
	j.finish(state, errMsg, result)
	j.mu.Unlock()
	if from == StateQueued {
		journal()
	}

	if held {
		s.m.queued.Add(-1)
	}
	switch state {
	case StateDone:
		s.m.completed.Add(1)
	case StateFailed:
		s.m.failed.Add(1)
		s.noteFailure(j.id)
	case StateCanceled:
		s.m.canceled.Add(1)
	case StateDeadline:
		s.m.deadlined.Add(1)
	}
	total := time.Since(j.submitted)
	s.m.jobLatency.ObserveExemplar(total.Seconds(), j.traceID())
	s.collectTrace(j, total)
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
// table and finishes it, so dedup attachers and event subscribers are
// released — with the refusal its submitter got — rather than left
// waiting on a job no worker will ever pop.
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

// finish moves the job to a terminal state and wakes subscribers and
// waiters. j.mu must be held, and the caller must have checked that the
// job is not terminal yet: a job finishes once.
func (j *job) finish(state, errMsg string, result []byte) {
	j.state = state
	j.err = errMsg
	j.result = result
	j.finished = time.Now()
	j.epochSubs.close() // subscribers emit the final event on close
	j.telemSubs.close()
	close(j.done)
}

// topic is the subscriber set of one of a job's live streams. The
// owning job's mutex guards it: publishing a value and appending it to
// the stream's backlog happen in one critical section, and so do
// snapshotting the backlog and subscribing, which is what gives a late
// joiner every value exactly once. The map is allocated on first
// subscribe, so a job nobody streams pays for none.
type topic[T any] struct {
	subs map[chan T]struct{}
}

// publish offers v to every subscriber without blocking: one whose
// buffer is full misses that value (its backlog replay on subscribe
// already made it complete up to the moment it joined). j.mu held.
func (t *topic[T]) publish(v T) {
	for ch := range t.subs {
		select {
		case ch <- v:
		default:
		}
	}
}

// close closes every subscriber channel, which is how a subscriber
// learns the stream has ended. j.mu held.
func (t *topic[T]) close() {
	for ch := range t.subs {
		close(ch)
	}
	t.subs = nil
}

// subscribe returns the stream's backlog as of this instant and, unless
// j has already finished (terminal: the backlog is the whole stream),
// registers ch for everything published after it.
func (t *topic[T]) subscribe(j *job, ch chan T, backlog func() []T) (past []T, terminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	past = backlog()
	if j.state != StateQueued && j.state != StateRunning {
		return past, true
	}
	if t.subs == nil {
		t.subs = make(map[chan T]struct{})
	}
	t.subs[ch] = struct{}{}
	return past, false
}

func (t *topic[T]) unsubscribe(j *job, ch chan T) {
	j.mu.Lock()
	delete(t.subs, ch)
	j.mu.Unlock()
}

// publishEpoch appends a progress sample to the backlog and fans it out.
func (j *job) publishEpoch(e system.EpochSample) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.epochs = append(j.epochs, e)
	j.epochSubs.publish(e)
}

// publishTelemetry appends a point to the telemetry ring and fans it out.
func (j *job) publishTelemetry(p obs.EpochPoint) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.telem.Append(p)
	j.telemSubs.publish(p)
}

func (j *job) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.id,
		State:       j.state,
		Design:      j.design,
		Combo:       j.spec,
		Replayed:    j.replayed,
		Timeout:     Duration(j.timeout),
		SubmittedAt: j.submitted,
		StartedAt:   j.started,
		FinishedAt:  j.finished,
		Epochs:      len(j.epochs),
		Error:       j.err,
		TraceID:     j.trace.Context().TraceID,
		Spans:       j.trace.Records(),
	}
	if j.state == StateDone {
		st.Result = j.result
	}
	return st
}

package serve

// Cluster integration: what turns N standalone daemons into one
// deduplicating simulation tier. internal/cluster owns the mechanics
// (membership, rendezvous routing, the peer HTTP client, health
// probing, metrics); this file wires them into the job lifecycle:
//
//   - Submit routing: a non-owner proxies unknown submissions to the
//     job's rendezvous owner and relays the response verbatim, so the
//     202-implies-journaled contract is the OWNER's journal. The front
//     keeps a forwarded-job ledger (the fully resolved request) so it
//     can adopt the job if the owner later dies.
//   - GET routing: unknown IDs are chased down the rendezvous ranking;
//     done responses fill the local cache (hit anywhere = hit
//     everywhere — result bytes and ETag are identical across peers
//     because results are deterministic and content-addressed).
//   - Failover: when every live peer ranked above this daemon is gone,
//     submissions are accepted locally, and forwarded jobs whose owner
//     died are promoted into the local journal-backed queue.
//   - Work stealing: /v1/peerz gossips queue depth; an idle peer calls
//     a saturated owner's /v1/steal, adopts one queued job, and the
//     owner watches the thief, mirroring the terminal state (or
//     reclaiming the job if the thief dies too).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/hydrogen-sim/hydrogen/internal/cluster"
	"github.com/hydrogen-sim/hydrogen/internal/faultinject"
	"github.com/hydrogen-sim/hydrogen/internal/obs"
)

// maxRelayBody bounds a relayed peer response; results are a few KB,
// so 32 MiB is generous headroom, not a real ceiling.
const maxRelayBody = 32 << 20

// stolenMissLimit is how many consecutive failed polls of a thief the
// owner tolerates before reclaiming a stolen job.
const stolenMissLimit = 3

// clusterState is the serve-side composition of the cluster package.
type clusterState struct {
	cfg     *cluster.Config
	router  *cluster.Router
	pc      *cluster.PeerClient
	prober  *cluster.Prober
	cm      *cluster.Metrics
	breaker *cluster.Breaker

	// forwarded remembers every submission this daemon proxied out: the
	// fully resolved job, so a dead owner's jobs can be promoted into
	// the local queue without re-deriving anything from the client.
	mu        sync.Mutex
	forwarded map[string]*submission

	stopOnce  sync.Once
	stealStop chan struct{}
	stealDone chan struct{}
}

// initCluster validates the peer config and starts the cluster loops.
// Called at the end of New, after the queue exists — the stealer pushes
// into it.
func (s *Server) initCluster(cfg *cluster.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	cl := &clusterState{
		cfg:       cfg,
		router:    cluster.NewRouter(cfg.Members),
		pc:        cluster.NewPeerClient(cfg.Self, cfg.ProxyTimeout, cfg.ProbeTimeout),
		forwarded: make(map[string]*submission),
		stealStop: make(chan struct{}),
		stealDone: make(chan struct{}),
	}
	cl.breaker = cluster.NewBreaker(cluster.BreakerConfig{
		Window:       cfg.BreakerWindow,
		MinSamples:   cfg.BreakerMinSamples,
		FailureRatio: cfg.BreakerRatio,
		OpenFor:      cfg.BreakerOpenFor,
	}, nil, func(peer string) {
		cl.cm.BreakerOpens.Add(1)
		s.logf("cluster: circuit breaker opened for peer %s", peer)
	})
	cl.prober = cluster.NewProber(cfg.Peers(), cl.pc, cfg.ProbeInterval,
		func() { cl.cm.ProbeErrors.Add(1) })
	cl.cm = cluster.NewMetrics(s.m.reg,
		func() int64 { return int64(len(cfg.Members)) },
		func() int64 { return cl.prober.AliveCount() + 1 }, // self counts
		cl.breaker.OpenCount,
	)
	s.cl = cl
	s.mux.HandleFunc("GET /v1/peerz", s.handlePeerz)
	s.mux.HandleFunc("POST /v1/steal", s.handleSteal)
	// Every response names the daemon that produced it, so clients and
	// smoke tests can tell which member of the tier they reached.
	inner := s.handler
	s.handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(cluster.HeaderSelf, cfg.Self)
		inner.ServeHTTP(w, r)
	})
	cl.prober.Start()
	if cfg.StealInterval > 0 {
		go s.stealLoop()
	} else {
		close(cl.stealDone)
	}
	s.logf("cluster: joined as %s (%d members)", cfg.Self, len(cfg.Members))
	return nil
}

// stopCluster halts the prober and stealer; idempotent, no-op when the
// daemon is standalone. Watcher goroutines for stolen jobs observe the
// same stop channel.
func (s *Server) stopCluster() {
	cl := s.cl
	if cl == nil {
		return
	}
	cl.stopOnce.Do(func() {
		close(cl.stealStop)
		cl.prober.Stop()
	})
	<-cl.stealDone
}

// errBreakerOpen is callPeer's answer for a call it short-circuited.
var errBreakerOpen = errors.New("breaker open")

// callPeer makes one cluster call to peer id the one way every such
// call is made: short-circuited (errBreakerOpen, the wire untouched)
// while the peer's circuit breaker is open — it has been failing, and
// burning a timeout on it would stall the caller for nothing — and with
// the outcome fed to both the breaker and the prober's liveness view.
// Only transport-level failures count against the peer: an HTTP
// response of any status proves it is alive and serving.
func (cl *clusterState) callPeer(id string, call func() error) error {
	if ok, _ := cl.breaker.Allow(id); !ok {
		cl.cm.BreakerShortCircuits.Add(1)
		return errBreakerOpen
	}
	err := call()
	cl.breaker.Record(id, err == nil)
	if err != nil {
		cl.prober.MarkDead(id, err)
	} else {
		cl.prober.MarkSeen(id)
	}
	return err
}

// proxyCall is callPeer for a request relayed on a client's behalf. A
// peer the prober considers alive gets the caller's full deadline; a
// dead-marked one is still tried — the verdict can be stale or a flap,
// and skipping a live owner would fork a duplicate simulation elsewhere
// — but on the probe timeout only, so no client request hangs on it.
func (cl *clusterState) proxyCall(ctx context.Context, m cluster.Member, call func(context.Context) (*http.Response, error)) (resp *http.Response, err error) {
	err = cl.callPeer(m.ID, func() (err error) {
		if !cl.prober.Alive(m.ID) {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, cl.cfg.ProbeTimeout)
			defer cancel()
		}
		if err = peerErrInjected(); err == nil {
			resp, err = call(ctx)
		}
		return err
	})
	return resp, err
}

// errPeerInjected is the transport-level failure the peer-error
// failpoint simulates without touching the wire.
var errPeerInjected = errors.New("faultinject: peer-error")

// peerErrInjected reports whether the peer-error failpoint fires for
// this call.
func peerErrInjected() error {
	if _, fired := faultinject.Hit(faultinject.PeerError); fired {
		return errPeerInjected
	}
	return nil
}

// clusterProxySubmit walks the job's rendezvous ranking and relays the
// submission to the first live peer ranked above this daemon. It
// returns false when the walk reaches self before any peer answers —
// the caller then accepts the job locally (failover). Peers whose
// circuit breaker is open are skipped without touching the wire.
func (s *Server) clusterProxySubmit(w http.ResponseWriter, r *http.Request, body []byte, sub *submission) bool {
	cl := s.cl
	key := sub.id
	start := time.Now()
	for i, m := range cl.router.Rank(key) {
		if m.ID == cl.cfg.Self {
			if i > 0 {
				cl.cm.Failovers.Add(1)
				s.logj(key, "owner unreachable; accepting locally", "rank", i)
			}
			return false
		}
		resp, err := cl.proxyCall(r.Context(), m, func(ctx context.Context) (*http.Response, error) {
			return cl.pc.Submit(ctx, m, body, sub.reqID, sub.tc.Header())
		})
		if err != nil {
			s.logj(key, "peer submit failed", "peer", m.ID, "err", err)
			continue
		}
		cl.cm.ProxiedSubmits.Add(1)
		s.relayPeerResponse(w, resp, m, sub)
		s.recordSpan(sub.tc, "proxy", start)
		return true
	}
	return false
}

// relayPeerResponse relays a proxied submit response verbatim, tagged
// with which peer produced it, and records the side effects: the
// forwarded-job ledger entry (for promote-on-failover) and, when the
// response already carries the finished result, the local cache fill.
func (s *Server) relayPeerResponse(w http.ResponseWriter, resp *http.Response, m cluster.Member, sub *submission) {
	cl := s.cl
	body, ok := s.readPeerBody(w, resp, m)
	if !ok {
		return
	}
	remember := func() {
		fw := *sub // the ledger outlives the request
		cl.mu.Lock()
		cl.forwarded[sub.id] = &fw
		cl.mu.Unlock()
	}
	switch resp.StatusCode {
	case http.StatusAccepted:
		// The owner journaled the job; remember enough to adopt it if
		// the owner dies before finishing.
		remember()
	case http.StatusOK:
		// 200 is either a cache hit (terminal, fill locally) or a dedup
		// attach to the owner's in-flight job — the latter needs the
		// ledger entry just like a fresh 202: the submitter holds an
		// ack for a job only the owner is running.
		var st JobStatus
		if err := json.Unmarshal(body, &st); err == nil && st.ID == sub.id {
			switch st.State {
			case StateQueued, StateRunning:
				remember()
			case StateDone:
				s.peerFill(sub, body)
			}
		}
	}
	relayRaw(w, resp, m, body)
}

// readPeerBody drains and closes a proxied response. When the body
// cannot be read it answers the client 502 itself and reports false.
func (s *Server) readPeerBody(w http.ResponseWriter, resp *http.Response, m cluster.Member) ([]byte, bool) {
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxRelayBody))
	if err != nil {
		s.cl.prober.MarkDead(m.ID, err)
		w.Header().Set(cluster.HeaderPeer, m.ID)
		w.Header().Set(cluster.HeaderPeerURL, m.URL)
		httpError(w, http.StatusBadGateway, "peer %s: reading response: %v", m.ID, err)
	}
	return body, err == nil
}

// relayRaw writes a peer's response through to the client: status,
// body bytes, and the headers that matter (ETag survives, so the
// client sees the same strong validator no matter which peer answers).
func relayRaw(w http.ResponseWriter, resp *http.Response, m cluster.Member, body []byte) {
	hdr := w.Header()
	hdr.Set(cluster.HeaderPeer, m.ID)
	hdr.Set(cluster.HeaderPeerURL, m.URL)
	for _, h := range []string{"Content-Type", "ETag", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			hdr.Set(h, v)
		}
	}
	if resp.StatusCode == http.StatusNotModified {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	hdr.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(body)
}

// peerFill parses a proxied response body and, when it carries a
// finished result, installs it locally: cache entry plus a synthesized
// done job record, so every subsequent hit for this ID is local. The
// result bytes are stored verbatim — determinism plus content
// addressing make them identical to the owner's.
func (s *Server) peerFill(sub *submission, body []byte) {
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil || st.State != StateDone || len(st.Result) == 0 || st.ID != sub.id {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.jobs[sub.id]; exists || s.draining {
		return
	}
	s.cache.Put(sub.id, st.Result)
	s.synthesizeDoneLocked(sub, st.Result)
	s.cl.cm.PeerFills.Add(1)
	s.cl.mu.Lock()
	delete(s.cl.forwarded, sub.id)
	s.cl.mu.Unlock()
	s.logj(sub.id, "cache filled from peer")
}

// clusterGet chases an unknown job ID down its rendezvous ranking. If
// no live peer above this daemon knows the job but this daemon
// forwarded its submission earlier, the owner died with it: the job is
// promoted into the local journal-backed queue and re-run.
func (s *Server) clusterGet(w http.ResponseWriter, r *http.Request, id string) {
	cl := s.cl
	reqID := r.Header.Get(obs.HeaderRequestID)
	trace := r.Header.Get(obs.HeaderTrace)
	for i, m := range cl.router.Rank(id) {
		if m.ID == cl.cfg.Self {
			break
		}
		resp, err := cl.proxyCall(r.Context(), m, func(ctx context.Context) (*http.Response, error) {
			return cl.pc.GetJob(ctx, m, id, r.Header.Get("If-None-Match"), reqID, trace)
		})
		if err != nil {
			if i == 0 && err != errBreakerOpen {
				cl.cm.Failovers.Add(1)
			}
			continue
		}
		if resp.StatusCode == http.StatusNotFound {
			resp.Body.Close()
			continue // this peer never saw it; try further down the ring
		}
		cl.cm.ProxiedGets.Add(1)
		if resp.StatusCode == http.StatusNotModified {
			resp.Body.Close()
			relayRaw(w, resp, m, nil)
			return
		}
		body, ok := s.readPeerBody(w, resp, m)
		if !ok {
			return
		}
		if resp.StatusCode == http.StatusOK {
			if fw := s.lookupForwarded(id); fw != nil {
				s.peerFill(fw, body)
			}
		}
		relayRaw(w, resp, m, body)
		return
	}
	j, ref := s.promoteForwarded(id)
	switch {
	case ref != nil && ref.kind != refusedQuarantined:
		// This daemon forwarded the submission, the owner is gone, and
		// adoption was refused for now (draining, full queue, dead journal,
		// low disk): the client holds a 202, so tell it to retry rather
		// than pretend the job never existed. A quarantined ID is refused
		// for good and keeps the 404 — no Retry-After could satisfy it.
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "owner unreachable; local adoption failed: %v", ref)
	case j != nil:
		writeJSON(w, http.StatusOK, j.snapshot())
	default:
		httpError(w, http.StatusNotFound, "no such job")
	}
}

func (s *Server) lookupForwarded(id string) *submission {
	s.cl.mu.Lock()
	defer s.cl.mu.Unlock()
	return s.cl.forwarded[id]
}

// promoteForwarded is the failover entry to the lifecycle: it adopts a
// job this daemon proxied out whose owner is now unreachable, so the
// 202 the client holds stays replayable from SOME journal. It returns
// the local job, existing or new; (nil, nil) when this daemon never
// forwarded the ID; or intake's refusal — the job was then NOT silently
// dropped (a submit record that reached the journal is neutralized).
func (s *Server) promoteForwarded(id string) (*job, *refusal) {
	fw := s.lookupForwarded(id)
	if fw == nil {
		return nil, nil
	}
	sub := *fw
	sub.via = "promote"
	j, fresh, ref := s.intake(&sub)
	if fresh {
		s.cl.cm.PromotedJobs.Add(1)
		s.logj(id, "promoted after owner failure", "design", j.design, "combo", j.spec.ID)
	}
	return j, ref
}

// handlePeerz serves this daemon's self-status plus its view of the
// rest of the ring — the gossip surface the prober and stealer read.
func (s *Server) handlePeerz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining, replaying := s.draining, s.replaying
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, cluster.PeerzPayload{
		PeerStatus: cluster.PeerStatus{
			ID:       s.cl.cfg.Self,
			Queued:   s.m.queued.Load(),
			Running:  s.m.running.Load(),
			Draining: draining,
			Ready:    !draining && !replaying,
		},
		Peers: s.cl.prober.Snapshot(),
	})
}

// handleSteal hands one queued job to an idle peer. The job record
// stays here — the owner keeps answering polls for it — and a watcher
// goroutine mirrors the thief's terminal state back (or reclaims the
// job if the thief dies).
func (s *Server) handleSteal(w http.ResponseWriter, r *http.Request) {
	thiefID := r.Header.Get(cluster.HeaderForwarded)
	thief, ok := s.cl.router.Member(thiefID)
	if !ok {
		httpError(w, http.StatusBadRequest, "unknown thief %q", thiefID)
		return
	}
	j := s.popQueuedJob()
	if j == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	raw, err := json.Marshal(JobRequest{Config: &j.cfg, Design: j.design, Combo: j.spec, Timeout: Duration(j.timeout)})
	if err != nil {
		// Cannot serialize the handoff; keep the job for ourselves.
		s.requeueStolen(j)
		httpError(w, http.StatusInternalServerError, "marshal handoff: %v", err)
		return
	}
	s.cl.cm.StealsOut.Add(1)
	s.logj(j.id, "stolen", "thief", thiefID)
	go s.watchStolen(j, thief)
	// The request ID and trace context ride along so the thief's spans
	// join the tree.
	writeJSON(w, http.StatusOK, cluster.StolenJob{ID: j.id, Request: raw, RequestID: j.reqID, Trace: j.trace.Context().Header()})
}

// popQueuedJob takes one runnable job off the queue without blocking;
// nil when the queue is empty, closed, or the daemon is draining.
func (s *Server) popQueuedJob() *job {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		return nil
	}
	for {
		j := s.queue.TryPop()
		if j == nil {
			return nil
		}
		j.mu.Lock()
		if j.state != StateQueued {
			j.mu.Unlock()
			continue // canceled while queued; the worker would skip it too
		}
		j.stolen = true
		j.mu.Unlock()
		s.m.queued.Add(-1)
		return j
	}
}

// requeueStolen puts a popped job back on the queue. ForcePush ignores
// the queue cap — an accepted job is never dropped for depth — and only
// refuses when the queue is closed, i.e. the daemon is shutting down.
func (s *Server) requeueStolen(j *job) {
	j.mu.Lock()
	j.stolen = false
	j.mu.Unlock()
	s.mu.Lock()
	pushed := !s.draining && s.queue.ForcePush(j)
	s.mu.Unlock()
	if !pushed {
		// Shutting down: the submit record stays live, so the job replays
		// from the journal on the next start.
		s.abandonJob(j, &refusal{kind: refusedDraining})
		return
	}
	s.m.queued.Add(1)
}

// watchStolen polls the thief for the stolen job's fate: terminal
// states are mirrored into the local record and journal (the job was
// accepted HERE; its 202 contract is this daemon's), and a thief that
// stops answering forfeits the job back to the local queue.
func (s *Server) watchStolen(j *job, thief cluster.Member) {
	cl := s.cl
	// Floor the watch cadence: the thief needs time to journal and start
	// the adopted job, and reclaiming while it is merely slow would run
	// the simulation twice.
	interval := cl.cfg.ProbeInterval
	if interval < 500*time.Millisecond {
		interval = 500 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	misses := 0
	for {
		select {
		case <-cl.stealStop:
			return // shutting down; the job replays from the journal
		case <-j.done:
			return // canceled locally while stolen
		case <-t.C:
		}
		st, err := s.pollStolen(j, thief)
		if err != nil {
			misses++
			if misses >= stolenMissLimit {
				cl.cm.StealReturns.Add(1)
				s.logj(j.id, "reclaiming stolen job", "thief", thief.ID, "err", err)
				s.requeueStolen(j)
				return
			}
			continue
		}
		misses = 0
		switch st.State {
		case StateDone, StateFailed, StateCanceled, StateDeadline:
			if st.State == StateDone {
				s.cache.Put(j.id, st.Result)
			}
			// The thief's spans (already stamped with its node name) merge
			// into the local record before the terminal journal write, so
			// the trace survives both the migration and a later replay.
			j.trace.AddAll(st.Spans)
			if s.terminate(j, StateQueued, st.State, st.Error, st.Result) {
				s.logj(j.id, "finished remotely", "thief", thief.ID, "state", st.State)
			}
			return
		}
	}
}

// pollStolen fetches the stolen job's status from the thief. A 404
// (the thief rejected or lost the handoff) counts as an error so the
// miss counter advances toward reclaim.
func (s *Server) pollStolen(j *job, thief cluster.Member) (JobStatus, error) {
	resp, err := s.cl.pc.GetJob(context.Background(), thief, j.id, "", j.reqID, j.trace.Context().Header())
	s.cl.breaker.Record(thief.ID, err == nil)
	if err != nil {
		s.cl.prober.MarkDead(thief.ID, err)
		return JobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		return JobStatus{}, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxRelayBody)).Decode(&st); err != nil {
		return JobStatus{}, err
	}
	return st, nil
}

// stealLoop is the thief side: when this daemon is idle, poll the
// prober's gossip for the deepest-queued live peer and take one job.
func (s *Server) stealLoop() {
	cl := s.cl
	defer close(cl.stealDone)
	t := time.NewTicker(cl.cfg.StealInterval)
	defer t.Stop()
	for {
		select {
		case <-cl.stealStop:
			return
		case <-t.C:
			s.stealOnce()
		}
	}
}

// stealOnce steals at most one job: only when this daemon has an empty
// queue and a free worker, and only from a live, non-draining peer at
// or above the configured queue-depth threshold.
func (s *Server) stealOnce() {
	cl := s.cl
	if s.m.queued.Load() > 0 || s.m.running.Load() >= int64(s.opts.Workers) {
		return
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		return
	}
	var victim cluster.Member
	depth := int64(cl.cfg.StealThreshold) - 1
	for id, v := range cl.prober.Snapshot() {
		if v.Alive && !v.Draining && v.Queued > depth {
			if m, ok := cl.router.Member(id); ok {
				victim, depth = m, v.Queued
			}
		}
	}
	if victim.ID == "" {
		return
	}
	var sj *cluster.StolenJob
	err := cl.callPeer(victim.ID, func() (err error) {
		if sj, err = cl.pc.Steal(context.Background(), victim); err == nil {
			err = peerErrInjected()
		}
		return err
	})
	if err == nil && sj != nil {
		s.adoptStolen(sj, victim)
	}
}

// adoptStolen is the steal entry to the lifecycle: verify the handoff
// (the request must hash to the advertised ID — content addressing is
// the integrity check) and hand it to intake. Whatever the refusal, the
// job is simply not adopted here; the owner's watcher reclaims it after
// a few missed polls.
func (s *Server) adoptStolen(sj *cluster.StolenJob, from cluster.Member) *refusal {
	var req JobRequest
	if err := json.Unmarshal(sj.Request, &req); err != nil {
		s.logj(sj.ID, "steal handoff undecodable", "from", from.ID, "err", err)
		return nil
	}
	sub, err := s.resolveRequest(&req)
	if err != nil || sub.id != sj.ID {
		s.logj(sj.ID, "steal handoff rejected", "from", from.ID, "key", short(sub.id), "err", err)
		return nil
	}
	sub.reqID = sj.RequestID
	if tc, ok := obs.ParseTraceHeader(sj.Trace); ok && tc.Sampled {
		sub.tc = tc
	}
	_, fresh, ref := s.intake(&sub)
	switch {
	case ref != nil:
		s.logj(sub.id, "steal adoption refused", "from", from.ID, "err", ref)
	case fresh:
		s.cl.cm.StealsIn.Add(1)
		s.logj(sub.id, "adopted stolen job", "from", from.ID)
	}
	return ref
}

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
//
// A job runs only on its owner, or on the front that promotes it: a
// queued job waits for its owner's workers.

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"

	"github.com/hydrogen-sim/hydrogen/internal/cluster"
	"github.com/hydrogen-sim/hydrogen/internal/faultinject"
	"github.com/hydrogen-sim/hydrogen/internal/obs"
)

// maxRelayBody bounds a relayed peer response; results are a few KB,
// so 32 MiB is generous headroom, not a real ceiling.
const maxRelayBody = 32 << 20

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
}

// initCluster validates the peer config, registers the cluster route
// and starts the prober. Called at the end of New, after the workers
// exist — a promoted job is pushed into the local queue.
func (s *Server) initCluster(cfg *cluster.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	cl := &clusterState{
		cfg:       cfg,
		router:    cluster.NewRouter(cfg.Members),
		pc:        cluster.NewPeerClient(cfg.Self, cfg.ProxyTimeout, cfg.ProbeTimeout),
		forwarded: make(map[string]*submission),
	}
	cl.breaker = cluster.NewBreaker(cluster.BreakerConfig{}, nil, func(peer string) {
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
	cl.prober.Start()
	s.logf("cluster: joined as %s (%d members)", cfg.Self, len(cfg.Members))
	return nil
}

// stopCluster halts the prober; idempotent, no-op when the daemon is
// standalone.
func (s *Server) stopCluster() {
	if s.cl != nil {
		s.cl.prober.Stop()
	}
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
	for i, m := range cl.router.Rank(key) {
		if m.ID == cl.cfg.Self {
			if i > 0 {
				cl.cm.Failovers.Add(1)
				s.logj(key, "owner unreachable; accepting locally", "rank", i)
			}
			return false
		}
		resp, err := cl.proxyCall(r.Context(), m, func(ctx context.Context) (*http.Response, error) {
			return cl.pc.Submit(ctx, m, body, sub.reqID)
		})
		if err != nil {
			s.logj(key, "peer submit failed", "peer", m.ID, "err", err)
			continue
		}
		cl.cm.ProxiedSubmits.Add(1)
		s.relayPeerResponse(w, resp, m, sub)
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
	relayRaw(w, resp, body)
}

// readPeerBody drains and closes a proxied response. When the body
// cannot be read it answers the client 502 itself and reports false.
func (s *Server) readPeerBody(w http.ResponseWriter, resp *http.Response, m cluster.Member) ([]byte, bool) {
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxRelayBody))
	if err != nil {
		s.cl.prober.MarkDead(m.ID, err)
		httpError(w, http.StatusBadGateway, "peer %s: reading response: %v", m.ID, err)
	}
	return body, err == nil
}

// relayRaw writes a peer's response through to the client: status,
// body bytes, and the headers that matter (ETag survives, so the
// client sees the same strong validator no matter which peer answers).
func relayRaw(w http.ResponseWriter, resp *http.Response, body []byte) {
	hdr := w.Header()
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
// finished result, installs it locally: a synthesized done job record,
// written through to the spill directory like a local result, so every
// subsequent hit for this ID is local. The result bytes are stored
// verbatim — determinism plus content addressing make them identical to
// the owner's.
func (s *Server) peerFill(sub *submission, body []byte) {
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil || st.State != StateDone || len(st.Result) == 0 || st.ID != sub.id {
		return
	}
	s.mu.Lock()
	_, exists := s.jobs[sub.id]
	draining := s.draining
	s.mu.Unlock()
	if exists || draining {
		return
	}
	s.synthesizeDone(sub, st.Result)
	s.cl.cm.PeerFills.Add(1)
	s.cl.mu.Lock()
	delete(s.cl.forwarded, sub.id)
	s.cl.mu.Unlock()
	s.logj(sub.id, "cache filled from peer")
	// The fsync stays outside s.mu; nothing is journaled for a fill, so
	// the write has no record to precede.
	if err := s.cache.Put(sub.id, st.Result); err != nil {
		s.logj(sub.id, "cache write-through failed", "err", err)
	}
}

// clusterGet chases an unknown job ID down its rendezvous ranking. If
// no live peer above this daemon knows the job but this daemon
// forwarded its submission earlier, the owner died with it: the job is
// promoted into the local journal-backed queue and re-run.
func (s *Server) clusterGet(w http.ResponseWriter, r *http.Request, id string) {
	cl := s.cl
	reqID := w.Header().Get(obs.HeaderRequestID)
	for i, m := range cl.router.Rank(id) {
		if m.ID == cl.cfg.Self {
			break
		}
		resp, err := cl.proxyCall(r.Context(), m, func(ctx context.Context) (*http.Response, error) {
			return cl.pc.GetJob(ctx, m, id, r.Header.Get("If-None-Match"), reqID)
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
			relayRaw(w, resp, nil)
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
		relayRaw(w, resp, body)
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
		s.serveJob(w, r, j)
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
	j, fresh, ref := s.intake(fw)
	if fresh {
		s.cl.cm.PromotedJobs.Add(1)
		s.logj(id, "promoted after owner failure", "design", j.design.String(), "combo", j.spec.ID)
	}
	return j, ref
}

// handlePeerz serves this daemon's self-status plus its view of the
// rest of the ring — the surface the prober reads.
func (s *Server) handlePeerz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ready := !s.draining && !s.replaying
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, cluster.PeerzPayload{
		PeerStatus: cluster.PeerStatus{
			ID:    s.cl.cfg.Self,
			Ready: ready,
		},
		Peers: s.cl.prober.Snapshot(),
	})
}

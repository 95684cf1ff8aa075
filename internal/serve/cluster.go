package serve

// Cluster relay: with Options.Cluster set, every job ID has one owner,
// the member cluster.Router ranks first, and only the owner runs it.
// Every other member is a stateless relay for that job: a submission or
// poll it cannot answer from a local record goes to the owner, tagged
// with the X-Hydro-Forwarded loop guard so the owner answers locally,
// and the owner's answer is relayed verbatim. The 202 a client holds is
// therefore always the owner's journal's promise.
//
// When the owner cannot be reached the relay answers 503 + Retry-After
// and keeps nothing: no job record, no journal record, no simulation.
// The client retries; once the owner is back (its journal replayed
// at startup) the same request gets its answer. One simulation per content address
// holds by construction.

import (
	"io"
	"net/http"
	"strconv"

	"github.com/hydrogen-sim/hydrogen/internal/cluster"
	"github.com/hydrogen-sim/hydrogen/internal/obs"
)

// maxRelayBody bounds a relayed peer response; results are a few KB,
// so 32 MiB is generous headroom, not a real ceiling.
const maxRelayBody = 32 << 20

// clusterState is the serve-side composition of the cluster package.
type clusterState struct {
	self   string
	router *cluster.Router
	pc     *cluster.PeerClient
	cm     *cluster.Metrics
}

// initCluster validates the peer config and joins this daemon to it.
func (s *Server) initCluster(cfg *cluster.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	s.cl = &clusterState{
		self:   cfg.Self,
		router: cluster.NewRouter(cfg.Members),
		pc:     cluster.NewPeerClient(cfg.Self, cfg.ProxyTimeout),
		cm:     cluster.NewMetrics(s.m.reg),
	}
	s.logf("cluster: joined as %s (%d members)", cfg.Self, len(cfg.Members))
	return nil
}

// relayOwner returns the owner of job id when a request for it must be
// relayed: this daemon is clustered, does not own the job, and the
// request was not itself forwarded (the loop guard).
func (s *Server) relayOwner(r *http.Request, id string) (cluster.Member, bool) {
	if s.cl == nil || r.Header.Get(cluster.HeaderForwarded) != "" {
		return cluster.Member{}, false
	}
	m := s.cl.router.Owner(id)
	return m, m.ID != s.cl.self
}

// relaySubmit relays a submission's raw body to the job's owner.
func (s *Server) relaySubmit(w http.ResponseWriter, r *http.Request, owner cluster.Member, body []byte, sub *submission) {
	s.relay(w, sub.id, owner, s.cl.cm.ProxiedSubmits, func() (*http.Response, error) {
		return s.cl.pc.Submit(r.Context(), owner, body, sub.reqID)
	})
}

// relayGet relays a poll, If-None-Match included, to the job's owner.
func (s *Server) relayGet(w http.ResponseWriter, r *http.Request, owner cluster.Member, id string) {
	reqID := w.Header().Get(obs.HeaderRequestID)
	s.relay(w, id, owner, s.cl.cm.ProxiedGets, func() (*http.Response, error) {
		return s.cl.pc.GetJob(r.Context(), owner, id, r.Header.Get("If-None-Match"), reqID)
	})
}

// relay makes one call to owner and writes its answer through, counting
// it on relayed. An owner that cannot be reached, or whose answer
// cannot be read, is a 503 + Retry-After: the job stays the owner's.
func (s *Server) relay(w http.ResponseWriter, id string, owner cluster.Member, relayed *obs.Counter, call func() (*http.Response, error)) {
	resp, err := call()
	var body []byte
	if err == nil {
		if resp.StatusCode != http.StatusNotModified {
			body, err = io.ReadAll(io.LimitReader(resp.Body, maxRelayBody))
		}
		resp.Body.Close()
	}
	if err != nil {
		s.logj(id, "owner unreachable", "peer", owner.ID, "err", err)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "owner %s unreachable: %v", owner.ID, err)
		return
	}
	relayed.Add(1)
	relayRaw(w, resp, body)
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

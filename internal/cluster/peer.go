package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/hydrogen-sim/hydrogen/internal/obs"
)

// Cluster-internal HTTP headers.
const (
	// HeaderForwarded marks a request that has already been routed once:
	// the receiving peer must handle it locally, never re-proxy. Its
	// value is the forwarding peer's member ID. This is the loop guard —
	// even peers with momentarily divergent liveness views cannot bounce
	// a request around the ring.
	HeaderForwarded = "X-Hydro-Forwarded"
	// HeaderPeer names, on a proxied response, the peer that actually
	// produced (or failed to produce) it, so clients can tell which
	// member a 502/503 is really about and skip it on retry.
	HeaderPeer = "X-Hydro-Peer"
	// HeaderPeerURL carries that peer's base URL alongside HeaderPeer, so
	// a client holding a member URL list can match the dead peer without
	// knowing the ID-to-URL mapping in advance.
	HeaderPeerURL = "X-Hydro-Peer-Url"
	// HeaderSelf is attached to every response a clustered daemon
	// serves: its own member ID.
	HeaderSelf = "X-Hydro-Self"
)

// Trace and request-ID context crosses every cluster hop — proxy,
// steal, failover — in the same headers the client uses
// (obs.HeaderTrace, X-Request-ID), so one end-to-end request keeps one
// identity in every member's logs and span collector.

// PeerStatus is one peer's self-report: the /v1/peerz core payload.
type PeerStatus struct {
	ID       string `json:"id"`
	Queued   int64  `json:"queued"`
	Running  int64  `json:"running"`
	Draining bool   `json:"draining"`
	Ready    bool   `json:"ready"`
}

// PeerView is a prober's opinion of one peer: the last self-report
// plus reachability. Peerz gossips these, so any member's /v1/peerz
// also shows how the rest of the ring looks from there.
type PeerView struct {
	Alive    bool      `json:"alive"`
	Queued   int64     `json:"queued"`
	Running  int64     `json:"running"`
	Draining bool      `json:"draining,omitempty"`
	Error    string    `json:"error,omitempty"`
	LastSeen time.Time `json:"last_seen"`
}

// PeerzPayload is the full /v1/peerz body: the serving peer's own
// status plus its view of every other member.
type PeerzPayload struct {
	PeerStatus
	Peers map[string]PeerView `json:"peers,omitempty"`
}

// StolenJob is the /v1/steal response: one queued job handed from a
// saturated owner to an idle thief. Request is the serving layer's
// JobRequest in wire form — cluster does not interpret it, it only
// moves it — and ID is the job's content address, which the thief
// re-derives from the request as a handoff integrity check.
type StolenJob struct {
	ID      string          `json:"id"`
	Request json.RawMessage `json:"request"`
	// RequestID and Trace carry the submitting request's identity across
	// the steal hop (same contract as the X-Request-ID and
	// obs.HeaderTrace headers on proxy hops), so the thief's logs and
	// spans correlate with the submission even though it never saw the
	// original HTTP request.
	RequestID string `json:"request_id,omitempty"`
	Trace     string `json:"trace,omitempty"`
}

// PeerClient issues cluster-internal requests. It is a thin wrapper
// over http.Client: proxied submits and GETs return the raw
// *http.Response for the caller to relay, while peerz and steal decode
// their small payloads.
type PeerClient struct {
	self    string
	hc      *http.Client
	probeHC *http.Client
}

// NewPeerClient builds a peer client identifying as self. proxyTimeout
// bounds proxied submits/GETs; probeTimeout bounds peerz and steal
// calls (short — a probe that hangs is a probe that failed).
func NewPeerClient(self string, proxyTimeout, probeTimeout time.Duration) *PeerClient {
	return &PeerClient{
		self:    self,
		hc:      &http.Client{Timeout: proxyTimeout},
		probeHC: &http.Client{Timeout: probeTimeout},
	}
}

// Submit forwards a raw POST /v1/jobs body to m. reqID and trace, when
// non-empty, propagate the caller's request ID and trace context so the
// hop keeps one identity in both members' logs. The response is
// returned as-is for relaying; the caller owns closing its body.
func (p *PeerClient) Submit(ctx context.Context, m Member, body []byte, reqID, trace string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, m.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HeaderForwarded, p.self)
	setIdentity(req, reqID, trace)
	return p.hc.Do(req)
}

// GetJob forwards a GET /v1/jobs/{id} to m, propagating the caller's
// If-None-Match so cross-peer 304 revalidation works. The response is
// returned as-is for relaying; the caller owns closing its body.
func (p *PeerClient) GetJob(ctx context.Context, m Member, id, ifNoneMatch, reqID, trace string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(HeaderForwarded, p.self)
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	setIdentity(req, reqID, trace)
	return p.hc.Do(req)
}

// setIdentity stamps the cross-hop request identity headers.
func setIdentity(req *http.Request, reqID, trace string) {
	if reqID != "" {
		req.Header.Set(obs.HeaderRequestID, reqID)
	}
	if trace != "" {
		req.Header.Set(obs.HeaderTrace, trace)
	}
}

// Peerz probes m's /v1/peerz and decodes its self-status.
func (p *PeerClient) Peerz(ctx context.Context, m Member) (PeerStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.URL+"/v1/peerz", nil)
	if err != nil {
		return PeerStatus{}, err
	}
	req.Header.Set(HeaderForwarded, p.self)
	resp, err := p.probeHC.Do(req)
	if err != nil {
		return PeerStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		return PeerStatus{}, fmt.Errorf("cluster: peerz %s: HTTP %d", m.ID, resp.StatusCode)
	}
	var st PeerzPayload
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&st); err != nil {
		return PeerStatus{}, fmt.Errorf("cluster: peerz %s: %w", m.ID, err)
	}
	return st.PeerStatus, nil
}

// TracePayload is the /v1/traces/{id} body: one node's slice of a
// distributed trace, or — when served by the node the client asked —
// the merged cross-node tree. Partial marks a merge that could not
// reach every member (dead peer, open breaker), so a caller knows the
// tree may be missing hops rather than silently trusting it.
type TracePayload struct {
	TraceID string           `json:"trace_id"`
	Partial bool             `json:"partial,omitempty"`
	Nodes   []string         `json:"nodes,omitempty"`
	Spans   []obs.SpanRecord `json:"spans"`
}

// MemberStats is one member's entry in the federated /v1/clusterz view:
// peerz-style health plus the member's full metrics snapshot, and the
// serving node's local opinion of it (breaker state, reachability).
type MemberStats struct {
	ID       string               `json:"id"`
	URL      string               `json:"url,omitempty"`
	Self     bool                 `json:"self,omitempty"`
	Alive    bool                 `json:"alive"`
	Ready    bool                 `json:"ready,omitempty"`
	Draining bool                 `json:"draining,omitempty"`
	Queued   int64                `json:"queued"`
	Running  int64                `json:"running"`
	Breaker  string               `json:"breaker,omitempty"`
	Error    string               `json:"error,omitempty"`
	Metrics  []obs.SeriesSnapshot `json:"metrics,omitempty"`
}

// TraceFetch asks m for its local slice of a trace. The forwarded
// header keeps the peer from fanning out again (same loop guard as
// proxied jobs).
func (p *PeerClient) TraceFetch(ctx context.Context, m Member, traceID string) (*TracePayload, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.URL+"/v1/traces/"+traceID, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(HeaderForwarded, p.self)
	resp, err := p.probeHC.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return &TracePayload{TraceID: traceID}, nil
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		return nil, fmt.Errorf("cluster: traces from %s: HTTP %d", m.ID, resp.StatusCode)
	}
	var tp TracePayload
	if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&tp); err != nil {
		return nil, fmt.Errorf("cluster: traces from %s: %w", m.ID, err)
	}
	return &tp, nil
}

// Clusterz asks m for its own clusterz entry (health + metrics
// snapshot). The forwarded header makes the peer answer about itself
// only instead of fanning out.
func (p *PeerClient) Clusterz(ctx context.Context, m Member) (*MemberStats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.URL+"/v1/clusterz", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(HeaderForwarded, p.self)
	resp, err := p.probeHC.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		return nil, fmt.Errorf("cluster: clusterz from %s: HTTP %d", m.ID, resp.StatusCode)
	}
	var ms struct {
		Members []MemberStats `json:"members"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&ms); err != nil {
		return nil, fmt.Errorf("cluster: clusterz from %s: %w", m.ID, err)
	}
	for i := range ms.Members {
		if ms.Members[i].Self {
			return &ms.Members[i], nil
		}
	}
	return nil, fmt.Errorf("cluster: clusterz from %s: no self entry", m.ID)
}
func (p *PeerClient) Steal(ctx context.Context, m Member) (*StolenJob, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, m.URL+"/v1/steal", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(HeaderForwarded, p.self)
	resp, err := p.probeHC.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		return nil, nil
	case http.StatusOK:
		var sj StolenJob
		if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&sj); err != nil {
			return nil, fmt.Errorf("cluster: steal from %s: %w", m.ID, err)
		}
		if sj.ID == "" || len(sj.Request) == 0 {
			return nil, fmt.Errorf("cluster: steal from %s: incomplete handoff", m.ID)
		}
		return &sj, nil
	default:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		return nil, fmt.Errorf("cluster: steal from %s: HTTP %d", m.ID, resp.StatusCode)
	}
}

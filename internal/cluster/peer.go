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
)

// The request ID crosses every cluster hop — proxy and failover — in
// the same X-Request-ID header the client uses, so one end-to-end
// request keeps one identity in every member's logs.

// PeerStatus is one peer's self-report: the /v1/peerz core payload.
// Queue depth is not part of it; each member exports its own as
// hydroserved_jobs_queued.
type PeerStatus struct {
	ID    string `json:"id"`
	Ready bool   `json:"ready"`
}

// PeerView is a prober's opinion of one peer: reachability and when it
// last answered. Any member's /v1/peerz shows these, so it also shows
// how the rest of the ring looks from there.
type PeerView struct {
	Alive    bool      `json:"alive"`
	Error    string    `json:"error,omitempty"`
	LastSeen time.Time `json:"last_seen"`
}

// PeerzPayload is the full /v1/peerz body: the serving peer's own
// status plus its view of every other member.
type PeerzPayload struct {
	PeerStatus
	Peers map[string]PeerView `json:"peers,omitempty"`
}

// PeerClient issues cluster-internal requests. It is a thin wrapper
// over http.Client: proxied submits and GETs return the raw
// *http.Response for the caller to relay, while peerz decodes its small
// payload.
type PeerClient struct {
	self    string
	hc      *http.Client
	probeHC *http.Client
}

// NewPeerClient builds a peer client identifying as self. proxyTimeout
// bounds proxied submits/GETs; probeTimeout bounds peerz probes
// (short — a probe that hangs is a probe that failed).
func NewPeerClient(self string, proxyTimeout, probeTimeout time.Duration) *PeerClient {
	return &PeerClient{
		self:    self,
		hc:      &http.Client{Timeout: proxyTimeout},
		probeHC: &http.Client{Timeout: probeTimeout},
	}
}

// Submit forwards a raw POST /v1/jobs body to m. reqID, when non-empty,
// propagates the caller's request ID so the hop keeps one identity in
// both members' logs. The response is returned as-is for relaying; the
// caller owns closing its body.
func (p *PeerClient) Submit(ctx context.Context, m Member, body []byte, reqID string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, m.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HeaderForwarded, p.self)
	setIdentity(req, reqID)
	return p.hc.Do(req)
}

// GetJob forwards a GET /v1/jobs/{id} to m, propagating the caller's
// If-None-Match so cross-peer 304 revalidation works. The response is
// returned as-is for relaying; the caller owns closing its body.
func (p *PeerClient) GetJob(ctx context.Context, m Member, id, ifNoneMatch, reqID string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(HeaderForwarded, p.self)
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	setIdentity(req, reqID)
	return p.hc.Do(req)
}

// setIdentity stamps the cross-hop request ID header.
func setIdentity(req *http.Request, reqID string) {
	if reqID != "" {
		req.Header.Set(obs.HeaderRequestID, reqID)
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

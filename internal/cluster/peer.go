package cluster

import (
	"bytes"
	"context"
	"net/http"
	"time"

	"github.com/hydrogen-sim/hydrogen/internal/obs"
)

// Cluster-internal HTTP headers.
const (
	// HeaderForwarded marks a request that has already been routed once:
	// the receiving peer must handle it locally, never relay it again.
	// Its value is the forwarding peer's member ID. This is the loop
	// guard: even members with divergent member lists cannot bounce a
	// request around the ring.
	HeaderForwarded = "X-Hydro-Forwarded"
)

// PeerClient issues cluster-internal requests. It is a thin wrapper
// over http.Client: relayed submits and GETs return the raw
// *http.Response for the caller to relay.
type PeerClient struct {
	self string
	hc   *http.Client
}

// NewPeerClient builds a peer client identifying as self; timeout
// bounds one relayed submit or GET.
func NewPeerClient(self string, timeout time.Duration) *PeerClient {
	return &PeerClient{self: self, hc: &http.Client{Timeout: timeout}}
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

// setIdentity stamps the request ID on the relay hop, in the same
// X-Request-Id header the client uses, so one end-to-end request keeps
// one identity in both members' logs.
func setIdentity(req *http.Request, reqID string) {
	if reqID != "" {
		req.Header.Set(obs.HeaderRequestID, reqID)
	}
}

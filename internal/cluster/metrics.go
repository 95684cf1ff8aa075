package cluster

import "github.com/hydrogen-sim/hydrogen/internal/obs"

// Metrics is the hydro_cluster_* family. The obs registry is
// label-free by design, so these are cluster-wide aggregates; per-peer
// detail lives in the /readyz and /v1/peerz JSON bodies instead.
type Metrics struct {
	ProxiedSubmits *obs.Counter
	ProxiedGets    *obs.Counter
	PeerFills      *obs.Counter
	Failovers      *obs.Counter
	PromotedJobs   *obs.Counter
	ProbeErrors    *obs.Counter

	BreakerOpens         *obs.Counter
	BreakerShortCircuits *obs.Counter
}

// NewMetrics registers the cluster family on r. peers and alive feed
// the membership gauges at scrape time; openBreakers (nil reads as
// zero) feeds the tripped-breaker gauge.
func NewMetrics(r *obs.Registry, peers, alive, openBreakers func() int64) *Metrics {
	if openBreakers == nil {
		openBreakers = func() int64 { return 0 }
	}
	m := &Metrics{
		ProxiedSubmits: r.Counter("hydro_cluster_proxied_submits_total",
			"Job submissions proxied to their rendezvous owner on another peer."),
		ProxiedGets: r.Counter("hydro_cluster_proxied_gets_total",
			"Job status GETs proxied to a peer."),
		PeerFills: r.Counter("hydro_cluster_peer_fills_total",
			"Local result-cache fills from proxied peer responses."),
		Failovers: r.Counter("hydro_cluster_failovers_total",
			"Requests re-routed past a dead owner to the next peer in rendezvous order."),
		PromotedJobs: r.Counter("hydro_cluster_promoted_jobs_total",
			"Forwarded jobs adopted locally after their owner died."),
		ProbeErrors: r.Counter("hydro_cluster_probe_errors_total",
			"Failed peer health probes."),
		BreakerOpens: r.Counter("hydro_cluster_breaker_opens_total",
			"Per-peer circuit breakers tripped open on failure rate."),
		BreakerShortCircuits: r.Counter("hydro_cluster_breaker_short_circuits_total",
			"Peer calls refused locally by an open breaker."),
	}
	r.GaugeFunc("hydro_cluster_peers",
		"Configured cluster members, self included.", peers)
	r.GaugeFunc("hydro_cluster_peers_alive",
		"Configured peers currently reachable, self included.", alive)
	r.GaugeFunc("hydro_cluster_breakers_open",
		"Peers whose circuit breaker is currently open or half-open.", openBreakers)
	return m
}

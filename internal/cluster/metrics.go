package cluster

import "github.com/hydrogen-sim/hydrogen/internal/obs"

// Metrics is the hydro_cluster_* family: one counter per relayed kind
// of request. The obs registry is label-free by design, so these are
// member-wide aggregates.
type Metrics struct {
	ProxiedSubmits *obs.Counter
	ProxiedGets    *obs.Counter
}

// NewMetrics registers the cluster family on r.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		ProxiedSubmits: r.Counter("hydro_cluster_proxied_submits_total",
			"Job submissions relayed to their rendezvous owner on another peer."),
		ProxiedGets: r.Counter("hydro_cluster_proxied_gets_total",
			"Job status GETs relayed to their rendezvous owner on another peer."),
	}
}

// Package cluster turns N hydroserved daemons into one deduplicating
// simulation tier in which every job has one owner and every other
// member relays to it. It provides the pieces the serving layer
// composes:
//
//   - Membership: a static peer list (operator-chosen IDs + base URLs)
//     with a designated self, parsed from the -peers flag.
//   - Router: rendezvous (highest-random-weight) placement of
//     content-addressed job IDs onto members — the paper's own
//     way-placement scheme (internal/chash, Section IV-D) reused for
//     cluster placement, so adding or removing a peer relocates each
//     job to at most one new owner.
//   - PeerClient: the cluster-internal HTTP client that relays
//     submissions and polls to a job's owner.
//   - Metrics: the two hydro_cluster_* relay counters.
//
// The package is deliberately wire-agnostic about job payloads: proxied
// bodies pass through as raw bytes, so cluster has no dependency on
// internal/serve and the serving layer stays the single owner of its
// wire types.
package cluster

import (
	"fmt"
	"strings"
	"time"
)

// Member is one peer in the static member list.
type Member struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// Config describes a daemon's place in the cluster. The zero value is
// not valid; build one with ParsePeers or populate Self and Members
// directly and call Validate.
type Config struct {
	// Self is this daemon's member ID; it must name an entry in Members.
	Self string
	// Members is the full static member list, self included.
	Members []Member

	// ProxyTimeout bounds one relayed submit or GET to a job's owner;
	// <=0 selects 15s.
	ProxyTimeout time.Duration
	// StealInterval is ignored: a job runs only on its owner. The field
	// remains so callers that still set it compile.
	StealInterval time.Duration
}

// Validate checks the member list: self present, at least two members,
// and no duplicate IDs or URLs. It also normalizes URLs (trailing
// slashes stripped) and applies the ProxyTimeout default.
func (c *Config) Validate() error {
	if c.Self == "" {
		return fmt.Errorf("cluster: no self ID configured")
	}
	if len(c.Members) < 2 {
		return fmt.Errorf("cluster: need at least 2 members, have %d", len(c.Members))
	}
	ids := make(map[string]bool, len(c.Members))
	urls := make(map[string]bool, len(c.Members))
	selfSeen := false
	for i := range c.Members {
		m := &c.Members[i]
		if m.ID == "" {
			return fmt.Errorf("cluster: member %d has an empty ID", i)
		}
		if strings.ContainsAny(m.ID, " ,=") {
			return fmt.Errorf("cluster: member ID %q contains a reserved character", m.ID)
		}
		m.URL = strings.TrimRight(m.URL, "/")
		if m.URL == "" {
			return fmt.Errorf("cluster: member %s has an empty URL", m.ID)
		}
		if !strings.HasPrefix(m.URL, "http://") && !strings.HasPrefix(m.URL, "https://") {
			return fmt.Errorf("cluster: member %s URL %q is not http(s)", m.ID, m.URL)
		}
		if ids[m.ID] {
			return fmt.Errorf("cluster: duplicate member ID %q", m.ID)
		}
		if urls[m.URL] {
			return fmt.Errorf("cluster: duplicate member URL %q", m.URL)
		}
		ids[m.ID], urls[m.URL] = true, true
		if m.ID == c.Self {
			selfSeen = true
		}
	}
	if !selfSeen {
		return fmt.Errorf("cluster: self ID %q is not in the member list", c.Self)
	}
	if c.ProxyTimeout <= 0 {
		c.ProxyTimeout = 15 * time.Second
	}
	return nil
}

// ParsePeers parses the -peers flag form "id=url,id=url,..." plus the
// -self ID into a validated Config.
func ParsePeers(spec, self string) (*Config, error) {
	cfg := &Config{Self: self}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		id, url, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, fmt.Errorf("cluster: peer entry %q is not id=url", entry)
		}
		cfg.Members = append(cfg.Members, Member{ID: strings.TrimSpace(id), URL: strings.TrimSpace(url)})
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}

package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hydrogen-sim/hydrogen/internal/obs"
)

func TestParsePeers(t *testing.T) {
	cfg, err := ParsePeers("a=http://h1:1/, b=http://h2:2, c=http://h3:3", "b")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Self != "b" || len(cfg.Members) != 3 {
		t.Fatalf("parsed %+v", cfg)
	}
	if cfg.Members[0].URL != "http://h1:1" {
		t.Fatalf("trailing slash not stripped: %q", cfg.Members[0].URL)
	}
	peers := cfg.Peers()
	if len(peers) != 2 || peers[0].ID != "a" || peers[1].ID != "c" {
		t.Fatalf("Peers = %+v", peers)
	}
	if cfg.ProbeInterval <= 0 || cfg.ProxyTimeout <= 0 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

func TestParsePeersErrors(t *testing.T) {
	cases := []struct {
		spec, self, wantErr string
	}{
		{"a=http://h1", "a", "at least 2"},
		{"a=http://h1,b=http://h2", "z", "not in the member list"},
		{"a=http://h1,b=http://h2", "", "no self ID"},
		{"a=http://h1,a=http://h2", "a", "duplicate member ID"},
		{"a=http://h1,b=http://h1", "a", "duplicate member URL"},
		{"a=http://h1,b", "a", "not id=url"},
		{"a=http://h1,b=ftp://h2", "a", "not http(s)"},
		{"a=http://h1,=http://h2", "a", "empty ID"},
		{"a=http://h1,b=", "a", "empty URL"},
	}
	for _, tc := range cases {
		_, err := ParsePeers(tc.spec, tc.self)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("ParsePeers(%q, %q) err = %v, want substring %q", tc.spec, tc.self, err, tc.wantErr)
		}
	}
}

func testMembers(n int) []Member {
	out := make([]Member, n)
	for i := range out {
		out[i] = Member{ID: fmt.Sprintf("peer-%c", 'a'+i), URL: fmt.Sprintf("http://h%d", i)}
	}
	return out
}

func jobID(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("job-%d", i)))
	return hex.EncodeToString(sum[:])
}

func TestRouterConsistency(t *testing.T) {
	members := testMembers(4)
	r := NewRouter(members)
	for i := 0; i < 500; i++ {
		id := jobID(i)
		ranked := r.Rank(id)
		if len(ranked) != len(members) {
			t.Fatalf("Rank returned %d members, want %d", len(ranked), len(members))
		}
		if owner := r.Owner(id); owner != ranked[0] {
			t.Fatalf("Owner %+v != head of Rank %+v", owner, ranked[0])
		}
		if !r.Owns(ranked[0].ID, id) {
			t.Fatal("Owns disagrees with Owner")
		}
		// Every peer computes the same ranking regardless of list order.
		rev := make([]Member, len(members))
		for j, m := range members {
			rev[len(members)-1-j] = m
		}
		ranked2 := NewRouter(rev).Rank(id)
		for j := range ranked {
			if ranked[j] != ranked2[j] {
				t.Fatalf("ranking depends on member-list order: %v vs %v", ranked, ranked2)
			}
		}
	}
}

func TestProberMarksDeadAndRecovers(t *testing.T) {
	mux := http.NewServeMux()
	var healthy atomic.Bool
	healthy.Store(true)
	mux.HandleFunc("/v1/peerz", func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(PeerzPayload{PeerStatus: PeerStatus{ID: "b", Ready: true}})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	peers := []Member{
		{ID: "b", URL: srv.URL},
		{ID: "ghost", URL: "http://127.0.0.1:1"}, // nothing listens here
	}
	var probeErrs atomic.Int64
	pc := NewPeerClient("a", time.Second, time.Second)
	p := NewProber(peers, pc, 20*time.Millisecond, func() { probeErrs.Add(1) })

	// Before the first round everything is presumed alive.
	if !p.Alive("b") || !p.Alive("ghost") || p.Degraded() {
		t.Fatal("prober not optimistic before first round")
	}

	p.Start()
	defer p.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if !p.Alive("ghost") && p.Alive("b") {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if p.Alive("ghost") {
		t.Fatal("unreachable peer still considered alive")
	}
	if !p.Alive("b") {
		t.Fatal("healthy peer considered dead")
	}
	if !p.Degraded() {
		t.Fatal("cluster with a dead peer not degraded")
	}
	if got := p.AliveCount(); got != 1 {
		t.Fatalf("AliveCount = %d, want 1", got)
	}
	snap := p.Snapshot()
	if v := snap["b"]; !v.Alive || v.LastSeen.IsZero() {
		t.Fatalf("view of healthy peer: %+v", v)
	}
	if v := snap["ghost"]; v.Alive || v.Error == "" {
		t.Fatalf("view of dead peer: %+v", v)
	}
	if probeErrs.Load() == 0 {
		t.Fatal("probe-error hook never fired")
	}

	// A peer that starts failing is noticed on the next round.
	healthy.Store(false)
	deadline = time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && p.Alive("b") {
		time.Sleep(10 * time.Millisecond)
	}
	if p.Alive("b") {
		t.Fatal("failing peer still considered alive")
	}
	// Recovery is noticed too.
	healthy.Store(true)
	deadline = time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && !p.Alive("b") {
		time.Sleep(10 * time.Millisecond)
	}
	if !p.Alive("b") {
		t.Fatal("recovered peer still considered dead")
	}
	// Unknown IDs are presumed alive and ignored on mark.
	p.MarkDead("stranger", nil)
	if !p.Alive("stranger") {
		t.Fatal("unknown peer not presumed alive")
	}
}

func TestPeerClientPeerz(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/peerz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(PeerzPayload{PeerStatus: PeerStatus{ID: "b", Ready: true}})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	m := Member{ID: "b", URL: srv.URL}
	pc := NewPeerClient("a", time.Second, time.Second)

	st, err := pc.Peerz(context.Background(), m)
	if err != nil || st.ID != "b" || !st.Ready {
		t.Fatalf("peerz = (%+v, %v)", st, err)
	}
}

func TestMetricsRegisterAndExpose(t *testing.T) {
	r := obs.NewRegistry()
	m := NewMetrics(r, func() int64 { return 3 }, func() int64 { return 2 }, func() int64 { return 1 })
	m.ProxiedSubmits.Add(1)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if err := obs.ValidateExposition(text); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, text)
	}
	for _, want := range []string{
		"hydro_cluster_proxied_submits_total 1",
		"hydro_cluster_peers 3",
		"hydro_cluster_peers_alive 2",
		"hydro_cluster_failovers_total 0",
		"hydro_cluster_promoted_jobs_total 0",
		"hydro_cluster_peer_fills_total 0",
		"hydro_cluster_probe_errors_total 0",
		"hydro_cluster_proxied_gets_total 0",
		"hydro_cluster_breaker_opens_total 0",
		"hydro_cluster_breaker_short_circuits_total 0",
		"hydro_cluster_breakers_open 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

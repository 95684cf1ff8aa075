package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

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
	if cfg.ProxyTimeout <= 0 {
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

func TestMetricsRegisterAndExpose(t *testing.T) {
	r := obs.NewRegistry()
	m := NewMetrics(r)
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
		"hydro_cluster_proxied_gets_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	if n := strings.Count(text, "\nhydro_cluster_"); n != 2 {
		t.Fatalf("exposition has %d hydro_cluster_* series, want the 2 relay counters:\n%s", n, text)
	}
}

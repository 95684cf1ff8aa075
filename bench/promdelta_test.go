package main

import "testing"

func TestPromDeltaParsesCountersLabelsAndExemplars(t *testing.T) {
	before := parseProm(`# HELP hydroserved_cache_hits_total Submissions answered from the result cache.
# TYPE hydroserved_cache_hits_total counter
hydroserved_cache_hits_total 10
hydroserved_journal_syncs_total 4
hydroserved_http_request_seconds_bucket{le="0.001"} 7 # {trace_id="abc def"} 0.0004
hydroserved_http_request_seconds_sum 0.25
`)
	after := parseProm(`hydroserved_cache_hits_total 25
hydroserved_journal_syncs_total 4
hydroserved_http_request_seconds_bucket{le="0.001"} 19 # {trace_id="0123"} 0.0002
hydroserved_http_request_seconds_sum 1.5
hydro_cluster_proxied_gets_total 3
not a metric line
weird{a="b c"}
`)
	d := promDelta(before, after)
	for name, want := range map[string]float64{
		"hydroserved_cache_hits_total":                        15,
		"hydroserved_journal_syncs_total":                     0,
		`hydroserved_http_request_seconds_bucket{le="0.001"}`: 12,
		"hydroserved_http_request_seconds_sum":                1.25,
		"hydro_cluster_proxied_gets_total":                    3, // absent before: counts from zero
	} {
		if got, ok := d[name]; !ok || got != want {
			t.Errorf("delta[%s] = %v (present %v), want %v", name, got, ok, want)
		}
	}
	if len(d) != 5 {
		t.Errorf("parsed %d series, want 5: %v", len(d), d)
	}
}

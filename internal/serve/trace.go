package serve

// Distributed tracing and metrics federation: the serve-side of the
// cluster-wide observability plane.
//
//   - Every submission may carry an X-Hydro-Trace context (client-minted
//     or, with Options.TraceSample > 0, minted here). The context rides
//     proxy, steal, and failover hops, so each node stamps its spans
//     with its own name into the same trace.
//   - Finished jobs deposit their span lists into a bounded per-node
//     SpanCollector. GET /v1/traces/{id} merges this node's slice with
//     every peer's into one tree; GET /debug/tracez lists the node's
//     recent and slowest traces.
//   - GET /v1/clusterz federates health and the full metrics snapshot
//     of every member into one view (JSON, or ?format=prometheus for a
//     single node-labeled exposition).
//   - Jobs slower than Options.SlowRequest emit one structured log
//     record carrying the whole span tree inline — the forensic record
//     for "why was this request slow" without any external collector.

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/hydrogen-sim/hydrogen/internal/cluster"
	"github.com/hydrogen-sim/hydrogen/internal/obs"
)

// traceFor resolves a submission's trace context: an incoming sampled
// X-Hydro-Trace header wins; otherwise, with TraceSample > 0, the
// daemon mints a root context and applies the head-sampling decision.
// The zero context means "not traced" — unsampled and malformed headers
// land there, and so does every request when TraceSample is 0.
func (s *Server) traceFor(r *http.Request) obs.TraceContext {
	if v := r.Header.Get(obs.HeaderTrace); v != "" {
		if tc, ok := obs.ParseTraceHeader(v); ok && tc.Sampled {
			return tc
		}
		return obs.TraceContext{}
	}
	if s.opts.TraceSample <= 0 {
		return obs.TraceContext{}
	}
	id := obs.NewTraceID()
	if !obs.SampleTrace(id, s.opts.TraceSample) {
		return obs.TraceContext{}
	}
	return obs.TraceContext{TraceID: id, SpanID: obs.NewSpanID(), Sampled: true}
}

// traceID is the job's trace ID, or "" when the job is untraced — fed
// to histogram exemplars, which ignore the empty string.
func (j *job) traceID() string { return j.trace.Context().TraceID }

// tracedSpans is the span list to persist on the job's journal
// records: the full list for traced jobs (so steal, failover, and
// replay keep the trace history), nil for untraced ones — the default
// workload pays no journal growth for tracing it never asked for.
func (j *job) tracedSpans() []obs.SpanRecord {
	if j.traceID() == "" {
		return nil
	}
	return j.trace.Records()
}

// collectTrace deposits a finished job's spans into the node's span
// collector and, past the slow-request threshold, emits the structured
// forensic record with the span tree inline. No-op for untraced jobs.
func (s *Server) collectTrace(j *job, total time.Duration) {
	tc := j.trace.Context()
	if tc.TraceID == "" {
		return
	}
	recs := j.trace.Records()
	s.tracer.Add(tc.TraceID, recs)
	if s.opts.SlowRequest > 0 && total >= s.opts.SlowRequest {
		s.m.slowRequests.Add(1)
		s.log.Warn("slow request",
			"job", short(j.id),
			"trace_id", tc.TraceID,
			"request_id", j.reqID,
			"total", total.Round(time.Millisecond),
			"threshold", s.opts.SlowRequest,
			"spans", recs)
	}
}

// recordSpan stores one server-side span (e.g. the proxy hop on a
// forwarded submission) directly into the collector: such spans belong
// to the request, not to any local job record.
func (s *Server) recordSpan(tc obs.TraceContext, name string, start time.Time) {
	if !tc.Valid() || !tc.Sampled {
		return
	}
	s.tracer.Add(tc.TraceID, []obs.SpanRecord{{
		Name:     name,
		Start:    start,
		Duration: time.Since(start),
		TraceID:  tc.TraceID,
		SpanID:   obs.NewSpanID(),
		ParentID: tc.SpanID,
		Node:     s.node,
	}})
}

// validTraceID gates the /v1/traces path parameter to the 32-hex wire
// form before it is ever spliced into a peer URL.
func validTraceID(id string) bool {
	if len(id) != 32 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// handleTrace serves GET /v1/traces/{id}: this node's slice of the
// trace merged — on clustered daemons — with every peer's slice into
// the full cross-node tree. Peers whose breaker is open or whose fetch
// fails are skipped and reported via "partial": the degraded answer is
// still an answer. Any member can serve any trace.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !validTraceID(id) {
		httpError(w, http.StatusBadRequest, "bad trace id %q (want 32 hex chars)", id)
		return
	}
	spans := s.tracer.Get(id)
	partial := false
	if cl := s.cl; cl != nil && r.Header.Get(cluster.HeaderForwarded) == "" {
		for _, m := range cl.cfg.Peers() {
			var p *cluster.TracePayload
			err := cl.callPeer(m.ID, func() (err error) {
				p, err = cl.pc.TraceFetch(r.Context(), m, id)
				return err
			})
			if err != nil {
				partial = true
				continue
			}
			spans = append(spans, p.Spans...)
		}
	}
	spans = dedupeSpans(spans)
	if len(spans) == 0 && !partial {
		httpError(w, http.StatusNotFound, "no such trace")
		return
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	nodes := map[string]bool{}
	var names []string
	for _, r := range spans {
		if r.Node != "" && !nodes[r.Node] {
			nodes[r.Node] = true
			names = append(names, r.Node)
		}
	}
	sort.Strings(names)
	writeJSON(w, http.StatusOK, cluster.TracePayload{TraceID: id, Partial: partial, Nodes: names, Spans: spans})
}

// dedupeSpans drops duplicate span IDs, keeping the first occurrence —
// a span can reach the front twice (once via the job status mirrored
// from a thief, once from the thief's own collector). Spans without an
// ID are always kept.
func dedupeSpans(spans []obs.SpanRecord) []obs.SpanRecord {
	seen := make(map[string]bool, len(spans))
	out := spans[:0]
	for _, r := range spans {
		if r.SpanID != "" {
			if seen[r.SpanID] {
				continue
			}
			seen[r.SpanID] = true
		}
		out = append(out, r)
	}
	return out
}

// handleTracez serves GET /debug/tracez: the node's recent and slowest
// traces, newest/slowest first, with the collector's occupancy. ?n=
// bounds both lists (default 20).
func (s *Server) handleTracez(w http.ResponseWriter, r *http.Request) {
	n := 20
	if v := r.URL.Query().Get("n"); v != "" {
		if parsed, err := strconv.Atoi(v); err == nil && parsed > 0 {
			n = parsed
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"node":    s.node,
		"held":    s.tracer.Len(),
		"evicted": s.tracer.Evicted(),
		"recent":  s.tracer.Recent(n),
		"slowest": s.tracer.Slowest(n),
	})
}

// selfStats is this daemon's own entry in the federated /v1/clusterz
// view: peerz-style health plus the full one-pass metrics snapshot.
func (s *Server) selfStats() cluster.MemberStats {
	s.mu.Lock()
	draining, replaying := s.draining, s.replaying
	s.mu.Unlock()
	ms := cluster.MemberStats{
		ID:       s.node,
		Self:     true,
		Alive:    true,
		Ready:    !draining && !replaying,
		Draining: draining,
		Queued:   s.m.queued.Load(),
		Running:  s.m.running.Load(),
		Metrics:  s.m.reg.Snapshot(),
	}
	if s.cl != nil {
		ms.ID = s.cl.cfg.Self
		if m, ok := s.cl.router.Member(s.cl.cfg.Self); ok {
			ms.URL = m.URL
		}
	}
	return ms
}

// handleClusterz serves GET /v1/clusterz: one merged view of every
// member's health, queue depths, local breaker verdicts, and complete
// metrics snapshot. A forwarded request (the loop guard) answers with
// the local entry only; otherwise the daemon fans out to every peer.
// Unreachable and breaker-open peers appear as stub entries with the
// error inline and flip "partial" — short-handed is a state worth
// seeing, not an error worth failing the whole view for.
// ?format=prometheus renders the same data as one exposition with every
// sample labeled by node.
func (s *Server) handleClusterz(w http.ResponseWriter, r *http.Request) {
	members := []cluster.MemberStats{s.selfStats()}
	partial := false
	if cl := s.cl; cl != nil && r.Header.Get(cluster.HeaderForwarded) == "" {
		for _, m := range cl.cfg.Peers() {
			var st *cluster.MemberStats
			err := cl.callPeer(m.ID, func() (err error) {
				st, err = cl.pc.Clusterz(r.Context(), m)
				return err
			})
			if err != nil {
				partial = true
				members = append(members, cluster.MemberStats{
					ID: m.ID, URL: m.URL, Breaker: cl.breaker.State(m.ID), Error: err.Error(),
				})
				continue
			}
			entry := *st
			entry.ID = m.ID // trust the ring, not the peer's self-report
			entry.URL = m.URL
			entry.Self = false
			entry.Alive = true
			entry.Breaker = cl.breaker.State(m.ID)
			members = append(members, entry)
		}
	}
	if r.URL.Query().Get("format") == "prometheus" {
		writeClusterProm(w, members)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"self":    s.node,
		"partial": partial,
		"members": members,
	})
}

// writeClusterProm renders the federated snapshot as one Prometheus
// exposition: each family's header once (first appearance fixes the
// order), then every member's samples labeled node="...". Stub entries
// carry no metrics and so render nothing.
func writeClusterProm(w http.ResponseWriter, members []cluster.MemberStats) {
	type slice struct {
		node string
		snap obs.SeriesSnapshot
	}
	var order []string
	families := map[string][]slice{}
	for _, m := range members {
		for _, snap := range m.Metrics {
			if _, ok := families[snap.Name]; !ok {
				order = append(order, snap.Name)
			}
			families[snap.Name] = append(families[snap.Name], slice{m.ID, snap})
		}
	}
	var b strings.Builder
	for _, name := range order {
		fam := families[name]
		obs.WriteFamilyHeader(&b, fam[0].snap)
		for _, sl := range fam {
			obs.WriteSnapshotPrometheus(&b, sl.snap, fmt.Sprintf("node=%q", sl.node))
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}

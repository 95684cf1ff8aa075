package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's
// own code around that call (the program under test is not
// instrumented). Spans of one operation share Op; Parent is the ID of
// the span that caused this one, -1 for an operation's root.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder is
// the untraced run: every method is a no-op, so load loops call it
// unconditionally.
type recorder struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	lastOp int64
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// op mints the identifier the spans of one operation share.
func (r *recorder) op() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lastOp++
	return r.lastOp
}

// begin opens a span now and returns its ID for end and for children.
func (r *recorder) begin(name string, op int64, parent int) int {
	if r == nil {
		return -1
	}
	return r.beginAt(name, op, parent, time.Now())
}

func (r *recorder) end(id int) {
	if r != nil {
		r.endAt(id, time.Now())
	}
}

// beginAt and endAt take the instants from the caller: an open-loop
// operation starts when it was due, and a job ends at the finished_at
// its status reports.
func (r *recorder) beginAt(name string, op int64, parent int, at time.Time) int {
	if r == nil {
		return -1
	}
	ns := at.Sub(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Op: op, ID: id, Parent: parent, Start: ns, End: ns})
	return id
}

func (r *recorder) endAt(id int, at time.Time) {
	if r == nil || id < 0 {
		return
	}
	ns := at.Sub(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = ns
	r.mu.Unlock()
}

// selfTimes returns, for every span, its duration minus the part of
// its interval that its child spans cover (children clipped to the
// parent and overlapping children counted once).
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		ks := kids[s.ID]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered := s.Start // everything before this is already subtracted
		for _, k := range ks {
			lo, hi := spans[k].Start, spans[k].End
			if lo < covered {
				lo = covered
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				self[i] -= hi - lo
				covered = hi
			}
		}
	}
	return self
}

// spanTotals is one layer boundary's share of a traced run.
type spanTotals struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func (r *recorder) totals() []spanTotals {
	if r == nil {
		return nil
	}
	self := selfTimes(r.spans)
	byName := map[string]*spanTotals{}
	for i, s := range r.spans {
		t := byName[s.Name]
		if t == nil {
			t = &spanTotals{Name: s.Name}
			byName[s.Name] = t
		}
		t.Count++
		t.TotalMS += float64(s.End-s.Start) / 1e6
		t.SelfMS += float64(self[i]) / 1e6
	}
	out := make([]spanTotals, 0, len(byName))
	for _, t := range byName {
		out = append(out, *t)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].SelfMS > out[b].SelfMS })
	return out
}

// maxSpansWritten bounds the trace file: a hit-path run records a few
// hundred thousand spans, all of which feed the per-name totals, but
// only the earliest operations are written out in full.
const maxSpansWritten = 20000

// write stores the totals and the first maxSpansWritten spans as JSON.
func (r *recorder) write(path string, stamp map[string]any, totals []spanTotals) error {
	spans := r.spans
	if len(spans) > maxSpansWritten {
		spans = spans[:maxSpansWritten]
	}
	data, err := json.MarshalIndent(map[string]any{
		"stamp":          stamp,
		"spans_recorded": len(r.spans),
		"spans_written":  len(spans),
		"by_name":        totals,
		"spans":          spans,
	}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

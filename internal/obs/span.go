package obs

import (
	"encoding/json"
	"sync"
	"time"
)

// SpanRecord is one finished span: a named interval on a job's path
// through the service (submit -> queue -> run -> cache -> journal). It
// marshals with the duration in both float seconds (for dashboards)
// and Go duration string form (for humans reading job status JSON).
type SpanRecord struct {
	Name     string
	Start    time.Time
	Duration time.Duration
}

// spanJSON is the wire form of a SpanRecord.
type spanJSON struct {
	Name    string    `json:"name"`
	Start   time.Time `json:"start"`
	Seconds float64   `json:"seconds"`
	Human   string    `json:"duration"`
}

// MarshalJSON renders the span with a float-seconds duration.
func (s SpanRecord) MarshalJSON() ([]byte, error) {
	return json.Marshal(spanJSON{
		Name:    s.Name,
		Start:   s.Start,
		Seconds: s.Duration.Seconds(),
		Human:   s.Duration.String(),
	})
}

// UnmarshalJSON restores a SpanRecord from its wire form.
func (s *SpanRecord) UnmarshalJSON(b []byte) error {
	var j spanJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	s.Name = j.Name
	s.Start = j.Start
	s.Duration = time.Duration(j.Seconds * float64(time.Second))
	if j.Human != "" {
		if d, err := time.ParseDuration(j.Human); err == nil {
			s.Duration = d // exact form wins over the rounded float
		}
	}
	return nil
}

// Span is an in-progress interval. Spans are cheap — two time stamps
// and a string — and carry no goroutine or context machinery; the
// caller decides where the record goes when the span ends.
type Span struct {
	Name  string
	Begin time.Time
}

// StartSpan opens a span now.
func StartSpan(name string) *Span {
	return &Span{Name: name, Begin: time.Now()}
}

// End closes the span and returns its record.
func (s *Span) End() SpanRecord {
	return SpanRecord{Name: s.Name, Start: s.Begin, Duration: time.Since(s.Begin)}
}

// EndInto closes the span and appends its record to tr (nil-safe).
func (s *Span) EndInto(tr *Trace) {
	if tr != nil {
		tr.Add(s.End())
	}
}

// Trace collects the spans of one job or request. Safe for concurrent
// use; the zero value is NOT ready (use NewTrace), because a nil Trace
// must stay a cheap no-op for callers that did not ask for tracing.
type Trace struct {
	mu    sync.Mutex
	spans []SpanRecord
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

// Add appends a finished span. Nil-safe.
func (t *Trace) Add(r SpanRecord) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, r)
	t.mu.Unlock()
}

// AddAll appends finished records recorded elsewhere (the spans of a
// stolen job, mirrored from the peer that ran it). Nil-safe.
func (t *Trace) AddAll(rs []SpanRecord) {
	if t == nil || len(rs) == 0 {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, rs...)
	t.mu.Unlock()
}

// AddInterval records a span from explicit endpoints — for intervals
// whose boundaries were stamped before tracing existed (e.g. a job's
// queue wait, measured between two fields the server already keeps).
func (t *Trace) AddInterval(name string, start time.Time, d time.Duration) {
	t.Add(SpanRecord{Name: name, Start: start, Duration: d})
}

// Records returns a copy of the finished spans, in completion order.
// Nil-safe (returns nil).
func (t *Trace) Records() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]SpanRecord(nil), t.spans...)
}

package obs

import (
	"encoding/json"
	"testing"
	"time"
)

func TestSpanRecordJSONRoundTrip(t *testing.T) {
	rec := SpanRecord{
		Name:     "run",
		Start:    time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC),
		Duration: 1500 * time.Millisecond,
	}
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	// The wire form carries both float seconds and the exact Go string.
	var wire map[string]any
	if err := json.Unmarshal(b, &wire); err != nil {
		t.Fatal(err)
	}
	if wire["name"] != "run" || wire["seconds"] != 1.5 || wire["duration"] != "1.5s" {
		t.Fatalf("wire form = %v", wire)
	}
	var back SpanRecord
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != rec.Name || !back.Start.Equal(rec.Start) || back.Duration != rec.Duration {
		t.Fatalf("round trip: got %+v, want %+v", back, rec)
	}
}

// TestSpanRecordJSONCompat pins the span wire form to name, start,
// seconds and duration, and checks that a span written by an older
// daemon — one that also carried trace_id, span_id, parent_id and node
// — still decodes, the extra keys ignored.
func TestSpanRecordJSONCompat(t *testing.T) {
	r := SpanRecord{Name: "run", Start: time.Unix(100, 0).UTC(), Duration: 1500 * time.Millisecond}
	b, err := r.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"name":"run","start":"1970-01-01T00:01:40Z","seconds":1.5,"duration":"1.5s"}`; string(b) != want {
		t.Fatalf("wire form %s, want %s", b, want)
	}
	old := `{"name":"run","start":"1970-01-01T00:01:40Z","seconds":1.5,"duration":"1.5s",` +
		`"trace_id":"4bf92f3577b34da6a3ce929d0e0e4736","span_id":"00f067aa0ba902b7","parent_id":"a3ce929d0e0e4736","node":"n0"}`
	var back SpanRecord
	if err := json.Unmarshal([]byte(old), &back); err != nil {
		t.Fatal(err)
	}
	if back != r {
		t.Fatalf("older span decoded as %+v, want %+v", back, r)
	}
}

func TestSpanEndInto(t *testing.T) {
	tr := NewTrace()
	sp := StartSpan("queue")
	sp.EndInto(tr)
	tr.AddInterval("wait", time.Now(), 30*time.Millisecond)

	recs := tr.Records()
	if len(recs) != 2 {
		t.Fatalf("Records len = %d, want 2", len(recs))
	}
	if recs[0].Name != "queue" || recs[0].Duration < 0 {
		t.Fatalf("span record = %+v", recs[0])
	}
	if recs[1].Name != "wait" || recs[1].Duration != 30*time.Millisecond {
		t.Fatalf("interval record = %+v", recs[1])
	}
	// Records returns a copy: mutating it must not affect the trace.
	recs[0].Name = "mutated"
	if got := tr.Records()[0].Name; got != "queue" {
		t.Fatalf("trace mutated through returned slice: %q", got)
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	tr.Add(SpanRecord{Name: "x"})
	tr.AddInterval("y", time.Now(), time.Second)
	StartSpan("z").EndInto(tr)
	if got := tr.Records(); got != nil {
		t.Fatalf("nil trace Records = %v, want nil", got)
	}
}

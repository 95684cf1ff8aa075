package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{Name: "root", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "a", ID: 1, Parent: 0, Start: 10, End: 40},
		{Name: "b", ID: 2, Parent: 0, Start: 30, End: 60},  // overlaps a: 30-40 counted once
		{Name: "c", ID: 3, Parent: 0, Start: 90, End: 130}, // runs past the parent: clipped at 100
		{Name: "a.inner", ID: 4, Parent: 1, Start: 15, End: 20},
		{Name: "other", ID: 5, Parent: -1, Start: 0, End: 50}, // another operation's root
	}
	want := []int64{
		100 - (60 - 10) - (100 - 90), // root: covered 10-60 and 90-100
		30 - 5,
		30,
		40,
		5,
		50,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestRecorderParentsAndNilRecorder(t *testing.T) {
	var none *recorder
	if id := none.begin("x", none.op(), -1); id != -1 {
		t.Errorf("nil recorder begin = %d, want -1", id)
	}
	none.end(-1) // must not panic
	none.endAt(none.beginAt("x", 0, -1, time.Now()), time.Now())
	if none.totals() != nil {
		t.Error("nil recorder has totals")
	}

	r := newRecorder()
	op := r.op()
	due := r.t0.Add(5 * time.Millisecond)
	root := r.beginAt("job", op, -1, due)
	child := r.begin("client.submit", op, root)
	r.end(child)
	r.endAt(root, due.Add(20*time.Millisecond))
	if r.op() == op {
		t.Error("operation identifiers repeat")
	}
	if got := r.spans[root]; got.Start != 5e6 || got.End != 25e6 || got.Parent != -1 || got.Op != op {
		t.Errorf("root span = %+v", got)
	}
	if got := r.spans[child]; got.Parent != root || got.Op != op || got.End < got.Start {
		t.Errorf("child span = %+v", got)
	}
	var job spanTotals
	for _, tot := range r.totals() {
		if tot.Name == "job" {
			job = tot
		}
	}
	if job.Count != 1 || job.TotalMS != 20 || job.SelfMS > 20 {
		t.Errorf("job totals = %+v", job)
	}
}

package serve

import "testing"

func qjob(id string) *job { return &job{submission: submission{id: id}} }

func TestQueuePopsFIFO(t *testing.T) {
	q := newJobQueue(8)
	for _, id := range []string{"a", "b", "c"} {
		if !q.Push(qjob(id)) {
			t.Fatalf("push %s refused under cap", id)
		}
	}
	for _, want := range []string{"a", "b", "c"} {
		j, ok := q.Pop()
		if !ok || j.id != want {
			t.Fatalf("Pop = %+v, %v; want job %s", j, ok, want)
		}
	}
}

func TestQueueCapacityAndForcePush(t *testing.T) {
	q := newJobQueue(2)
	if !q.Push(qjob("a")) || !q.Push(qjob("b")) {
		t.Fatal("pushes under cap refused")
	}
	if q.Push(qjob("c")) {
		t.Fatal("push above cap accepted")
	}
	// ForcePush ignores the cap: owed jobs are never dropped for depth.
	if !q.ForcePush(qjob("d")) {
		t.Fatal("ForcePush refused on a full (but open) queue")
	}
	if got := q.Len(); got != 3 {
		t.Fatalf("queue depth = %d, want 3", got)
	}
}

func TestQueueDrainsAfterClose(t *testing.T) {
	q := newJobQueue(8)
	q.Push(qjob("a"))
	q.Push(qjob("b"))
	q.Close()
	if q.Push(qjob("c")) {
		t.Fatal("push accepted after close")
	}
	if q.ForcePush(qjob("c")) {
		t.Fatal("ForcePush accepted after close")
	}
	for i := 0; i < 2; i++ {
		if _, ok := q.Pop(); !ok {
			t.Fatalf("pop %d failed: closed queue must drain its backlog", i)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop reported ok on a closed empty queue")
	}
}

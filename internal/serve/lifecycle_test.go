package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/hydrogen-sim/hydrogen/internal/faultinject"
	"github.com/hydrogen-sim/hydrogen/internal/journal"
	"github.com/hydrogen-sim/hydrogen/internal/system"
)

// newLifecycleServer boots a journaled daemon with one worker.
func newLifecycleServer(t *testing.T, journal string) *Server {
	t.Helper()
	s, err := New(Options{Workers: 1, JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func lifecycleRequest(cycles uint64) JobRequest {
	cfg := system.Quick()
	cfg.Hybrid.FastCapacityBytes = 4 << 20
	cfg.Hybrid.RemapCacheBytes = 16 << 10
	cfg.LLC.SizeBytes = 256 << 10
	cfg.EpochLen = 100_000
	cfg.Cycles = cycles
	return JobRequest{Config: &cfg, Design: "Hydrogen", Combo: ComboSpec{ID: "C1"}}
}

// TestIntakeRefusalNeutralizes drives a submission through every way
// intake can refuse a job, before minting it (quarantine) or after,
// and requires the same outcome each time: the refusal's answer,
// no record left in the job table, and a journal that replays to zero
// pending jobs — a refused job must stay dead across a restart. (The
// other intake entry, journal replay, journals nothing and is never
// refused for depth; TestCrashReplayByteIdentical covers it.)
func TestIntakeRefusalNeutralizes(t *testing.T) {
	faults := []struct {
		name   string
		arm    func(s *Server, id string)
		status int    // what a submitter is told
		body   string // the refusal's text
	}{
		{"journal append error", func(*Server, string) {
			faultinject.Set(faultinject.JournalAppendErr, 1, 0)
		}, http.StatusServiceUnavailable, "journal write failed"},
		{"drain after durable", func(s *Server, _ string) {
			// Drain wins the race in the window between the submit
			// record's fsync and the push.
			s.afterAppend = func(rec journalRecord) {
				if rec.Type == recSubmit {
					s.beginShutdown()
				}
			}
		}, http.StatusServiceUnavailable, "draining: not accepting new jobs"},
		{"queue full", func(s *Server, _ string) {
			s.queue.mu.Lock()
			s.queue.cap = 0
			s.queue.mu.Unlock()
		}, http.StatusTooManyRequests, "job queue full"},
		{"quarantined", func(s *Server, id string) {
			s.mu.Lock()
			s.failCount[id] = s.opts.QuarantineAfter
			s.mu.Unlock()
		}, http.StatusUnprocessableEntity, "job quarantined"},
	}
	for _, f := range faults {
		// Each subtest is named fault/entry, and POST /v1/jobs is the
		// entry a client can be refused at.
		t.Run(f.name+"/submit", func(t *testing.T) {
			defer faultinject.Reset()
			path := filepath.Join(t.TempDir(), "journal")
			s := newLifecycleServer(t, path)
			req := lifecycleRequest(200_000)
			raw, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			sub, err := s.resolveRequest(&req)
			if err != nil {
				t.Fatal(err)
			}
			f.arm(s, sub.id)
			w := httptest.NewRecorder()
			s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(raw)))
			if w.Code != f.status {
				t.Errorf("HTTP %d, want %d", w.Code, f.status)
			}
			if !strings.Contains(w.Body.String(), f.body) {
				t.Errorf("response %q does not carry the refusal %q", w.Body, f.body)
			}
			if s.lookup(sub.id) != nil {
				t.Error("refused job still in the job table")
			}
			s.Close()
			pending, _, _, err := replayJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(pending) != 0 {
				t.Errorf("journal replays %d pending job(s) after the refusal, want 0: a restart would resurrect it", len(pending))
			}
		})
	}
}

// TestReplayIgnoresPriorityAndDeadline: a journal whose submit record
// still carries the "priority" and "deadline" keys that earlier daemons
// wrote replays like any other. The past deadline is not read, so the
// job runs to done instead of ending deadline_exceeded before start.
func TestReplayIgnoresPriorityAndDeadline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	req := lifecycleRequest(200_000)
	probe := &Server{}
	sub, err := probe.resolveRequest(&req)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := json.Marshal(sub.cfg)
	if err != nil {
		t.Fatal(err)
	}
	combo, err := json.Marshal(sub.spec)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	rec := fmt.Sprintf(`{"t":"submit","id":%q,"time":%q,"config":%s,"design":%q,"combo":%s,"priority":"batch","deadline":%q}`,
		sub.id, now.Format(time.RFC3339Nano), cfg, sub.design, combo, now.Add(-time.Hour).Format(time.RFC3339Nano))
	if err := journal.Rewrite(path, [][]byte{[]byte(rec)}); err != nil {
		t.Fatal(err)
	}

	s, err := New(Options{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if n := s.ReplayedJobs(); n != 1 {
		t.Fatalf("replayed %d jobs, want 1", n)
	}
	j := s.lookup(sub.id)
	if j == nil {
		t.Fatal("replayed job missing from the job table")
	}
	select {
	case <-j.done:
	case <-time.After(2 * time.Minute):
		t.Fatal("replayed job never finished")
	}
	if st := j.snapshot(); st.State != StateDone {
		t.Fatalf("replayed job ended %s (%q), want done", st.State, st.Error)
	}
}

// TestReplayIgnoresJournaledSpans: a journal written by an older daemon,
// whose records carry "spans" with trace identity on them, replays like
// any other. The finished job stays finished and keeps its cached
// result; the pending one runs to done and lists only the spans this
// daemon recorded — none read back from the journal.
func TestReplayIgnoresJournaledSpans(t *testing.T) {
	path, cacheDir := filepath.Join(t.TempDir(), "journal"), t.TempDir()
	probe := &Server{}
	doneReq, pendingReq := lifecycleRequest(200_000), lifecycleRequest(300_000)
	doneSub, err := probe.resolveRequest(&doneReq)
	if err != nil {
		t.Fatal(err)
	}
	pendingSub, err := probe.resolveRequest(&pendingReq)
	if err != nil {
		t.Fatal(err)
	}

	// The finished job's result, spilled where the older daemon left it.
	s, err := New(Options{Workers: 1, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	j, _, ref := s.intake(&doneSub)
	if ref != nil {
		t.Fatal(ref)
	}
	<-j.done
	var done JobStatus
	enc, _ := j.answer()
	if err := json.Unmarshal(bytes.Join(enc.get, nil), &done); err != nil {
		t.Fatal(err)
	}
	want := done.Result
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	now := time.Now().Format(time.RFC3339Nano)
	spans := fmt.Sprintf(`[{"name":"promote","start":%q,"seconds":0,"duration":"0s",`+
		`"trace_id":"4bf92f3577b34da6a3ce929d0e0e4736","span_id":"00f067aa0ba902b7","parent_id":"a3ce929d0e0e4736","node":"n1"}]`, now)
	submitRec := func(sub submission) []byte {
		cfg, err := json.Marshal(sub.cfg)
		if err != nil {
			t.Fatal(err)
		}
		combo, err := json.Marshal(sub.spec)
		if err != nil {
			t.Fatal(err)
		}
		return []byte(fmt.Sprintf(`{"t":"submit","id":%q,"time":%q,"config":%s,"design":%q,"combo":%s,"spans":%s}`,
			sub.id, now, cfg, sub.design, combo, spans))
	}
	records := [][]byte{
		submitRec(doneSub),
		[]byte(fmt.Sprintf(`{"t":"done","id":%q,"time":%q,"spans":%s}`, doneSub.id, now, spans)),
		submitRec(pendingSub),
	}
	if err := journal.Rewrite(path, records); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Options{Workers: 1, JournalPath: path, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n := s2.ReplayedJobs(); n != 1 {
		t.Fatalf("replayed %d jobs, want 1 (the pending one)", n)
	}
	pending := s2.lookup(pendingSub.id)
	if pending == nil {
		t.Fatal("pending job missing from the job table")
	}
	select {
	case <-pending.done:
	case <-time.After(2 * time.Minute):
		t.Fatal("replayed job never finished")
	}
	st := pending.snapshot()
	if st.State != StateDone {
		t.Fatalf("replayed job ended %s (%q), want done", st.State, st.Error)
	}
	for _, sp := range st.Spans {
		if sp.Name == "promote" {
			t.Fatalf("replayed job lists a span read back from the journal: %+v", st.Spans)
		}
	}
	if raw, err := json.Marshal(st); err != nil {
		t.Fatal(err)
	} else if bytes.Contains(raw, []byte("trace_id")) || bytes.Contains(raw, []byte(`"node"`)) {
		t.Fatalf("replayed job's status carries trace identity: %s", raw)
	}

	// Resubmitting the finished job is a cache hit on the spilled result.
	w := httptest.NewRecorder()
	body, err := json.Marshal(doneReq)
	if err != nil {
		t.Fatal(err)
	}
	s2.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
	var hit JobStatus
	if err := json.Unmarshal(w.Body.Bytes(), &hit); err != nil {
		t.Fatal(err)
	}
	if w.Code != http.StatusOK || !hit.Cached || !bytes.Equal(hit.Result, want) {
		t.Fatalf("resubmitted finished job: HTTP %d cached=%v, same result %v", w.Code, hit.Cached, bytes.Equal(hit.Result, want))
	}
	if n := s2.SimulationsStarted(); n != 1 {
		t.Fatalf("restarted daemon ran %d simulations, want 1 (the pending job)", n)
	}
}

// refuseThenAccept submits one job twice to a journaled daemon: first
// against a full queue (429), then with room (202). The accepted job
// runs until the daemon closes, so it is still live afterwards.
func refuseThenAccept(t *testing.T) (s *Server, id string) {
	t.Helper()
	s, err := New(Options{Workers: 1, JournalPath: filepath.Join(t.TempDir(), "journal")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	req := lifecycleRequest(1 << 40)
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct{ cap, code int }{{0, http.StatusTooManyRequests}, {1, http.StatusAccepted}} {
		s.queue.mu.Lock()
		s.queue.cap = want.cap
		s.queue.mu.Unlock()
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(raw)))
		if w.Code != want.code {
			t.Fatalf("submit with queue capacity %d: HTTP %d, want %d", want.cap, w.Code, want.code)
		}
		var st JobStatus
		if err := json.Unmarshal(w.Body.Bytes(), &st); err == nil && st.ID != "" {
			id = st.ID
		}
	}
	return s, id
}

// TestRefusedThenAcceptedListedOnce: a submission refused at intake and
// later accepted is one job, so GET /v1/jobs lists it once.
func TestRefusedThenAcceptedListedOnce(t *testing.T) {
	s, id := refuseThenAccept(t)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/jobs", nil))
	var list []JobStatus
	if err := json.Unmarshal(w.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != id {
		t.Fatalf("GET /v1/jobs lists %d job(s) %+v, want job %s once", len(list), list, short(id))
	}
}

// TestRefusedThenAcceptedCompactsOnce: the compaction snapshot taken
// while that job is live holds one submit record for it.
func TestRefusedThenAcceptedCompactsOnce(t *testing.T) {
	s, id := refuseThenAccept(t)
	live, err := s.liveRecords()
	if err != nil {
		t.Fatal(err)
	}
	submits := map[string]int{}
	for _, payload := range live {
		var rec journalRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Type == recSubmit {
			submits[rec.ID]++
		}
	}
	if len(submits) != 1 || submits[id] != 1 {
		t.Fatalf("compacted journal holds submit records %v, want one for %s", submits, short(id))
	}
}

// TestUnencodableDoneEndsFailed: a result the status cannot be encoded
// with ends the job failed, never done without its wire bytes.
func TestUnencodableDoneEndsFailed(t *testing.T) {
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	req := lifecycleRequest(200_000)
	sub, err := s.resolveRequest(&req)
	if err != nil {
		t.Fatal(err)
	}
	j := s.synthesizeDone(&sub, []byte("{not json"))
	if st := j.snapshot(); st.State != StateFailed || !strings.HasPrefix(st.Error, "encode result: ") {
		t.Fatalf("job ended %s (%q), want failed with the encode error", st.State, st.Error)
	}
	if enc, _ := j.answer(); enc != nil {
		t.Fatal("failed job carries a done encoding")
	}
}

// TestDoneNeverAnsweredWithoutResult: readers racing a job's end —
// pollers on GET and dedup attachers — either see it unfinished or get
// its result; no answer says done without one.
func TestDoneNeverAnsweredWithoutResult(t *testing.T) {
	s, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	req := lifecycleRequest(200_000)
	sub, err := s.resolveRequest(&req)
	if err != nil {
		t.Fatal(err)
	}
	result := []byte(`{"cycles":1}`)
	for _, attach := range []bool{false, true} {
		t.Run(fmt.Sprintf("attach=%v", attach), func(t *testing.T) {
			for i := 0; i < 4000; i++ {
				each := sub
				each.id = fmt.Sprintf("race-%v-%d", attach, i)
				s.mu.Lock()
				j := s.mintLocked(&each)
				s.mu.Unlock()
				close(j.durable)
				j.mu.Lock()
				j.state = StateRunning
				j.mu.Unlock()

				errs := make(chan error, 4)
				for r := 0; r < cap(errs); r++ {
					go func() {
						for {
							w := httptest.NewRecorder()
							if attach {
								s.answerExisting(w, j)
							} else {
								s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+j.id, nil))
							}
							var st JobStatus
							if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
								errs <- fmt.Errorf("HTTP %d %q: %v", w.Code, w.Body, err)
								return
							}
							if st.State == StateDone {
								if !bytes.Equal(st.Result, result) || w.Header().Get("ETag") == "" {
									errs <- fmt.Errorf("done answer carries result %q, ETag %q", st.Result, w.Header().Get("ETag"))
									return
								}
								errs <- nil
								return
							}
						}
					}()
				}
				if !s.terminate(j, StateRunning, StateDone, "", result) {
					t.Fatal("terminate lost a claim nobody else makes")
				}
				for r := 0; r < cap(errs); r++ {
					if err := <-errs; err != nil {
						t.Fatalf("job %d: %v", i, err)
					}
				}
			}
		})
	}
}

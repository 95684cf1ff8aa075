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

	"github.com/hydrogen-sim/hydrogen/internal/cluster"
	"github.com/hydrogen-sim/hydrogen/internal/faultinject"
	"github.com/hydrogen-sim/hydrogen/internal/journal"
	"github.com/hydrogen-sim/hydrogen/internal/system"
)

// newLifecycleServer boots a journaled daemon that believes it has one
// peer (nothing listens there), so the steal and promote entries have
// the cluster state they need without any traffic.
func newLifecycleServer(t *testing.T, journal string) *Server {
	t.Helper()
	s, err := New(Options{
		Workers:     1,
		JournalPath: journal,
		Cluster: &cluster.Config{
			Self:          "a",
			Members:       []cluster.Member{{ID: "a", URL: "http://127.0.0.1:1"}, {ID: "b", URL: "http://127.0.0.1:2"}},
			StealInterval: -1,
			ProbeInterval: time.Hour,
		},
	})
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

// TestIntakeRefusalNeutralizes drives every entry that can be refused
// through every way intake can refuse a job, before minting it
// (quarantine, low disk) or after, and requires the same outcome each
// time: the expected refusal kind, no record left in the job table, and
// a journal that replays to zero pending jobs — a refused job must stay
// dead across a restart no matter which door it came in by.
func TestIntakeRefusalNeutralizes(t *testing.T) {
	type fault struct {
		name   string
		arm    func(s *Server, id string)
		kind   refusalKind
		status int    // what a submitter is told
		body   string // the refusal's text, as every HTTP entry relays it
		// promoteStatus is what a poller of a refused promote is told:
		// 503 + Retry-After while the refusal is transient, 404 for a
		// quarantined ID, which no retry could satisfy.
		promoteStatus int
	}
	faults := []fault{
		{"journal append error", func(*Server, string) {
			faultinject.Set(faultinject.JournalAppendErr, 1, 0)
		}, refusedJournal, http.StatusServiceUnavailable, "journal write failed", http.StatusServiceUnavailable},
		{"drain after durable", func(s *Server, _ string) {
			// Drain wins the race in the window between the submit
			// record's fsync and the push.
			s.afterAppend = func(rec journalRecord) {
				if rec.Type == recSubmit {
					s.beginShutdown()
				}
			}
		}, refusedDraining, http.StatusServiceUnavailable, "draining: not accepting new jobs", http.StatusServiceUnavailable},
		{"queue full", func(s *Server, _ string) {
			s.queue.mu.Lock()
			s.queue.cap = 0
			s.queue.mu.Unlock()
		}, refusedQueueFull, http.StatusTooManyRequests, "job queue full", http.StatusServiceUnavailable},
		{"quarantined", func(s *Server, id string) {
			s.mu.Lock()
			s.failCount[id] = s.opts.QuarantineAfter
			s.mu.Unlock()
		}, refusedQuarantined, http.StatusUnprocessableEntity, "job quarantined", http.StatusNotFound},
		{"disk low", func(s *Server, _ string) {
			s.diskCritical.Store(true)
		}, refusedDiskLow, http.StatusServiceUnavailable, "disk critically low", http.StatusServiceUnavailable},
	}
	// Each entry reports the refusal it saw: as a value where the adapter
	// returns one, as an HTTP answer where it has a client.
	entries := []struct {
		name string
		run  func(*testing.T, *Server, *submission, []byte, fault) (*refusal, *httptest.ResponseRecorder)
	}{
		{"submit", func(t *testing.T, s *Server, sub *submission, raw []byte, _ fault) (*refusal, *httptest.ResponseRecorder) {
			r := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(raw))
			r.Header.Set(cluster.HeaderForwarded, "b") // loop guard: accept here, do not proxy
			w := httptest.NewRecorder()
			s.ServeHTTP(w, r)
			return nil, w
		}},
		{"steal-adopt", func(t *testing.T, s *Server, sub *submission, raw []byte, _ fault) (*refusal, *httptest.ResponseRecorder) {
			ref := s.adoptStolen(&cluster.StolenJob{ID: sub.id, Request: raw}, cluster.Member{ID: "b"})
			if ref == nil {
				t.Fatal("adoption was not refused")
			}
			return ref, nil
		}},
		{"promote", func(t *testing.T, s *Server, sub *submission, raw []byte, f fault) (*refusal, *httptest.ResponseRecorder) {
			s.cl.mu.Lock()
			s.cl.forwarded[sub.id] = sub
			s.cl.mu.Unlock()
			// Polling a job this daemon forwarded walks to the dead owner,
			// fails, and promotes. The poller holds a 202, so a transient
			// refusal tells it to retry, never that the job is unknown.
			w := httptest.NewRecorder()
			s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+sub.id, nil))
			if w.Code != f.promoteStatus {
				t.Errorf("refused promote answered %d, want %d", w.Code, f.promoteStatus)
			}
			if f.promoteStatus == http.StatusNotFound {
				return nil, nil // the refusal itself is not relayed
			}
			if w.Header().Get("Retry-After") == "" {
				t.Error("refused promote answered without Retry-After")
			}
			w.Code = 0 // checked above; differs from the submitter's status by design
			return nil, w
		}},
	}
	for _, f := range faults {
		for _, e := range entries {
			t.Run(f.name+"/"+e.name, func(t *testing.T) {
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
				ref, w := e.run(t, s, &sub, raw, f)
				if ref != nil && ref.kind != f.kind {
					t.Errorf("refusal kind %d, want %d", ref.kind, f.kind)
				}
				if w != nil {
					if w.Code != 0 && w.Code != f.status {
						t.Errorf("HTTP %d, want %d", w.Code, f.status)
					}
					if !strings.Contains(w.Body.String(), f.body) {
						t.Errorf("response %q does not carry the refusal %q", w.Body, f.body)
					}
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
	want := j.snapshot().Result
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

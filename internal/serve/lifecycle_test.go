package serve

import (
	"bytes"
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
	"github.com/hydrogen-sim/hydrogen/internal/obs"
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
// after minting a job through every way intake can refuse one, and
// requires the same outcome each time: the expected refusal kind, no
// record left in the job table, and a journal that replays to zero
// pending jobs — a refused job must stay dead across a restart no
// matter which door it came in by.
func TestIntakeRefusalNeutralizes(t *testing.T) {
	faults := []struct {
		name   string
		arm    func(*Server)
		kind   refusalKind
		status int    // what a submitter is told
		body   string // the refusal's text, as every HTTP entry relays it
	}{
		{"journal append error", func(*Server) {
			faultinject.Set(faultinject.JournalAppendErr, 1, 0)
		}, refusedJournal, http.StatusServiceUnavailable, "journal write failed"},
		{"drain after durable", func(s *Server) {
			// Drain wins the race in the window between the submit
			// record's fsync and the push.
			s.afterAppend = func(rec journalRecord) {
				if rec.Type == recSubmit {
					s.beginShutdown()
				}
			}
		}, refusedDraining, http.StatusServiceUnavailable, "draining: not accepting new jobs"},
		{"queue full", func(s *Server) {
			s.queue.mu.Lock()
			s.queue.cap = 0
			s.queue.mu.Unlock()
		}, refusedQueueFull, http.StatusTooManyRequests, "job queue full"},
	}
	// Each entry reports the refusal it saw: as a value where the adapter
	// returns one, as an HTTP answer where it has a client.
	entries := []struct {
		name string
		run  func(*testing.T, *Server, *submission, []byte) (*refusal, *httptest.ResponseRecorder)
	}{
		{"submit", func(t *testing.T, s *Server, sub *submission, raw []byte) (*refusal, *httptest.ResponseRecorder) {
			r := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(raw))
			r.Header.Set(cluster.HeaderForwarded, "b") // loop guard: accept here, do not proxy
			w := httptest.NewRecorder()
			s.ServeHTTP(w, r)
			return nil, w
		}},
		{"steal-adopt", func(t *testing.T, s *Server, sub *submission, raw []byte) (*refusal, *httptest.ResponseRecorder) {
			ref := s.adoptStolen(&cluster.StolenJob{ID: sub.id, Request: raw}, cluster.Member{ID: "b"})
			if ref == nil {
				t.Fatal("adoption was not refused")
			}
			return ref, nil
		}},
		{"promote", func(t *testing.T, s *Server, sub *submission, raw []byte) (*refusal, *httptest.ResponseRecorder) {
			s.cl.mu.Lock()
			s.cl.forwarded[sub.id] = sub
			s.cl.mu.Unlock()
			// Polling a job this daemon forwarded walks to the dead owner,
			// fails, and promotes. The poller holds a 202, so whatever the
			// refusal it is told to retry, never that the job is unknown.
			w := httptest.NewRecorder()
			s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+sub.id, nil))
			if w.Code != http.StatusServiceUnavailable || w.Header().Get("Retry-After") == "" {
				t.Errorf("refused promote answered %d (Retry-After %q), want 503 + Retry-After",
					w.Code, w.Header().Get("Retry-After"))
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
				f.arm(s)
				ref, w := e.run(t, s, &sub, raw)
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

// TestCompactionKeepsPromoteSpans pins that live compaction rewrites a
// job's submit record exactly as intake wrote it: a promoted job's
// record carries the spans it was promoted with (the promote marker
// among them), and they must survive compaction, a crash and the replay
// that follows.
func TestCompactionKeepsPromoteSpans(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	s := newLifecycleServer(t, path)
	req := lifecycleRequest(500_000_000) // still running when the journal is compacted
	sub, err := s.resolveRequest(&req)
	if err != nil {
		t.Fatal(err)
	}
	sub.tc = obs.NewTraceContext(true) // only traced jobs journal their spans
	s.cl.mu.Lock()
	s.cl.forwarded[sub.id] = &sub
	s.cl.mu.Unlock()
	if j, ref := s.promoteForwarded(sub.id); j == nil || ref != nil {
		t.Fatalf("promote: job %v, refusal %v", j, ref)
	}
	if err := s.compactJournal(); err != nil {
		t.Fatal(err)
	}
	s.Crash()

	s2, err := New(Options{Workers: 1, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	j := s2.lookup(sub.id)
	if j == nil {
		t.Fatal("promoted job not replayed after compaction + crash")
	}
	for _, sp := range j.snapshot().Spans {
		if sp.Name == "promote" {
			return
		}
	}
	t.Fatalf("replayed job lost its promote span across compaction: %+v", j.snapshot().Spans)
}

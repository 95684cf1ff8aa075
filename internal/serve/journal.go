package serve

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"github.com/hydrogen-sim/hydrogen/internal/journal"
	"github.com/hydrogen-sim/hydrogen/internal/system"
)

// journalRecord is one entry in the durable job journal. A submit
// record carries everything needed to re-run the job after a crash
// without the original HTTP request (the fully resolved config, the
// spelled-out design spec and the canonical combo); later records reference the job by its
// content-addressed ID only. Terminal records reuse the job-state
// strings as their type.
type journalRecord struct {
	Type string    `json:"t"` // "submit", "start", or a terminal state
	ID   string    `json:"id"`
	Time time.Time `json:"time,omitzero"`

	// Submit-only fields.
	Config   *system.Config          `json:"config,omitempty"`
	Design   string                  `json:"design,omitempty"`
	Hydrogen *system.HydrogenOptions `json:"hydrogen,omitempty"`
	Combo    *ComboSpec              `json:"combo,omitempty"`
	Timeout  Duration                `json:"timeout,omitempty"`

	// Terminal detail: the failure message, and — in compacted logs —
	// the aggregated failure count for quarantine persistence.
	Error string `json:"error,omitempty"`
	Fails int    `json:"fails,omitempty"`
}

const (
	recSubmit = "submit"
	recStart  = "start"
)

// appendRecord journals one record, if a journal is configured. It is
// called from handlers and workers, never under s.mu or a job's mu, so
// no fsync holds a lock the request path needs; the journal serializes
// appends internally. An append failure is surfaced to the caller (a
// job whose submit record cannot be made durable must not be accepted)
// and counted.
func (s *Server) appendRecord(rec journalRecord) error {
	if s.jl == nil {
		return nil
	}
	rec.Time = time.Now()
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("serve: marshal journal record: %w", err)
	}
	if err := s.jl.Append(payload); err != nil {
		s.m.journalErrors.Add(1)
		return err
	}
	s.m.journalAppends.Add(1)
	if s.afterAppend != nil {
		s.afterAppend(rec)
	}
	return nil
}

// replayedJob is the reconstructed fate of one job ID after a journal
// replay.
type replayedJob struct {
	submit   journalRecord
	terminal string // last terminal state, "" if none
	fails    int
}

// replayJournal reads the journal at path and reconstructs the job
// table as of the crash: which jobs were still pending (submitted or
// started but not terminal, in submission order) and the per-ID
// failure counts that drive quarantine. A torn tail — the signature of
// a crash mid-append — is tolerated and reported via torn.
func replayJournal(path string) (pending []*replayedJob, fails map[string]int, torn bool, err error) {
	byID := make(map[string]*replayedJob)
	var order []string
	valid, size, err := journal.Replay(path, func(payload []byte) error {
		var rec journalRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			// An intact frame with an undecodable payload means a
			// foreign or future record; skip it rather than refuse to
			// start.
			return nil
		}
		switch rec.Type {
		case recSubmit:
			if _, ok := byID[rec.ID]; !ok {
				byID[rec.ID] = &replayedJob{submit: rec}
				order = append(order, rec.ID)
			} else {
				// Resubmission of a terminal job: fresh attempt.
				byID[rec.ID].submit = rec
				byID[rec.ID].terminal = ""
			}
		case recStart:
			if j, ok := byID[rec.ID]; ok {
				j.terminal = ""
			}
		case StateDone, StateFailed, StateCanceled, StateDeadline:
			j, ok := byID[rec.ID]
			if !ok {
				// Terminal without a submit record can only appear in a
				// hand-edited or truncated-then-compacted log; track the
				// failure count anyway.
				j = &replayedJob{submit: journalRecord{Type: recSubmit, ID: rec.ID}}
				byID[rec.ID] = j
			}
			j.terminal = rec.Type
			if rec.Type == StateFailed {
				n := rec.Fails
				if n <= 0 {
					n = 1
				}
				j.fails += n
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, false, err
	}
	fails = make(map[string]int)
	for _, id := range order {
		j := byID[id]
		if j.fails > 0 {
			fails[id] = j.fails
		}
		if j.terminal == "" && j.submit.Config != nil && j.submit.Combo != nil {
			pending = append(pending, j)
		}
	}
	return pending, fails, valid < size, nil
}

// liveRecords is the journal's startup compaction snapshot: one submit
// record per queued or running job, in mint order, plus one aggregated
// failed record per ID with a nonzero failure count — exactly what a
// restart's replay would rebuild.
func (s *Server) liveRecords() ([][]byte, error) {
	var live []*job
	var fails []journalRecord
	s.mu.Lock()
	for _, j := range s.jobs {
		j.mu.Lock()
		state := j.state
		j.mu.Unlock()
		if state == StateQueued || state == StateRunning {
			live = append(live, j)
		}
	}
	for id, n := range s.failCount {
		fails = append(fails, journalRecord{Type: StateFailed, ID: id, Fails: n})
	}
	s.mu.Unlock()
	sort.Slice(live, func(a, b int) bool { return live[a].seq < live[b].seq })
	sort.Slice(fails, func(a, b int) bool { return fails[a].ID < fails[b].ID })
	recs := make([]journalRecord, len(live), len(live)+len(fails))
	for i, j := range live {
		recs[i] = j.submitRecord()
	}
	out := make([][]byte, 0, cap(recs))
	for _, rec := range append(recs, fails...) {
		payload, err := json.Marshal(rec)
		if err != nil {
			return nil, err
		}
		out = append(out, payload)
	}
	return out, nil
}

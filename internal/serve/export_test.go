package serve

import (
	"bytes"
	"context"
	"encoding/json"

	"github.com/hydrogen-sim/hydrogen/internal/system"
	"github.com/hydrogen-sim/hydrogen/internal/workloads"
)

// CacheKeyUnderModel is CacheKey as a binary simulating another model
// version computes it.
func CacheKeyUnderModel(model string, cfg system.Config, design string, combo ComboSpec) string {
	d, _ := system.ParseDesign(design, nil)
	return system.ContentAddress(model, cfg, d, workloads.Combo(combo))
}

// LegacyStatusJSON reconstructs a terminal job's response the way the
// pre-memoization server did — fresh snapshot, json.Encoder per call —
// so byte-identity tests can prove the pre-encoded hit path emits
// exactly the old wire bytes. The result comes from an independent
// source: the job's config, design and combo are run again and the
// results marshaled, which runs being deterministic must reproduce.
// hit selects the POST cache-hit variant (Cached=true). The second
// return is false when the job is missing, not done, or the re-run
// fails.
func (s *Server) LegacyStatusJSON(id string, hit bool) ([]byte, bool) {
	j := s.lookup(id)
	if j == nil {
		return nil, false
	}
	st := j.snapshot()
	if st.State != StateDone {
		return nil, false
	}
	res, err := system.RunDesignObserved(context.Background(), j.cfg, j.design, workloads.Combo(j.spec), nil)
	if err != nil {
		return nil, false
	}
	if st.Result, err = json.Marshal(res); err != nil {
		return nil, false
	}
	if hit {
		st.Cached = true
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(st); err != nil {
		return nil, false
	}
	return buf.Bytes(), true
}

// Crash simulates a kill -9 for chaos tests: it closes the journal
// WITHOUT writing terminal records, force-cancels everything, and
// waits for the workers to exit — leaving the journal and spill
// directory exactly as a crashed process would have left them: records
// appended before the crash present, none after, and every result
// written through before the crash in the spill directory.
// The server is unusable afterward; tests construct a fresh one over
// the same paths to exercise recovery.
func (s *Server) Crash() {
	s.closeJournal()
	s.beginShutdown()
	s.cancelAll()
	s.workers.Wait()
}

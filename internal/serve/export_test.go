package serve

import (
	"bytes"
	"encoding/json"

	"github.com/hydrogen-sim/hydrogen/internal/system"
)

// CacheKeyUnderModel is CacheKey as a binary simulating another model
// version computes it.
func CacheKeyUnderModel(model string, cfg system.Config, design string, combo ComboSpec) string {
	d, _ := system.ParseDesign(design, nil)
	return specKey(model, cfg, d, combo)
}

// LegacyStatusJSON reconstructs a terminal job's response the way the
// pre-memoization server did — fresh snapshot, cache fallback for an
// evicted result, json.Encoder per call — so byte-identity tests can
// prove the pre-encoded hit path emits exactly the old wire bytes.
// hit selects the POST cache-hit variant (Cached=true). The second
// return is false when the job is missing, not done, or its result is
// unrecoverable.
func (s *Server) LegacyStatusJSON(id string, hit bool) ([]byte, bool) {
	j := s.lookup(id)
	if j == nil {
		return nil, false
	}
	st := j.snapshot()
	if st.State != StateDone {
		return nil, false
	}
	if st.Result == nil {
		data, ok := s.cache.Get(id)
		if !ok {
			return nil, false
		}
		st.Result = data
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

// SpillForTest flushes the in-memory cache to the spill directory so
// chaos tests can stage precise on-disk states.
func (s *Server) SpillForTest() error { return s.cache.SpillAll() }

// Crash simulates a kill -9 for chaos tests: it detaches the journal
// WITHOUT writing terminal records, force-cancels everything, and
// waits for the workers to exit — leaving the journal and spill
// directory exactly as a crashed process would have left them (submit
// and start records present, no terminal records, nothing spilled).
// The server is unusable afterward; tests construct a fresh one over
// the same paths to exercise recovery.
func (s *Server) Crash() {
	s.jlMu.Lock()
	if s.jl != nil {
		s.jl.Close()
		s.jl = nil
	}
	s.jlMu.Unlock()
	s.beginShutdown()
	s.cancelAll()
	s.workers.Wait()
}

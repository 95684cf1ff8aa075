package serve

// Disk and journal watermarks: a background loop that keeps the daemon
// honest about the storage its durability contract depends on. Three
// escalating responses, all observable in /metrics:
//
//   - Journal growth: past Options.MaxJournalBytes the log is rewritten
//     in place to the minimal equivalent state — the same compaction a
//     restart performs, without the restart.
//   - Disk pressure (free < 2x DiskLowBytes): the spill directory sheds
//     its oldest entries each check. Spills are a cache tier; pruning
//     them costs a re-simulation, never correctness.
//   - Critical disk (free < DiskLowBytes): the submit path refuses new
//     durable work with 503 rather than promise 202s whose journal
//     writes are about to hit ENOSPC. The flag clears with hysteresis
//     (free back above 2x) so the daemon does not flap at the edge.

import (
	"path/filepath"
	"time"

	"github.com/hydrogen-sim/hydrogen/internal/faultinject"
	"github.com/hydrogen-sim/hydrogen/internal/journal"
)

// spillPruneBatch bounds how many spill files one watermark tick sheds;
// pressure that outlasts a batch is handled by the next tick rather
// than one unbounded directory sweep.
const spillPruneBatch = 8

// watermarkLoop runs the periodic checks until wmStop closes. Started
// by New only when a watermark knob is set.
func (s *Server) watermarkLoop() {
	t := time.NewTicker(s.opts.WatermarkInterval)
	defer t.Stop()
	for {
		select {
		case <-s.wmStop:
			return
		case <-t.C:
			s.checkDisk()
			s.checkJournalSize()
		}
	}
}

// watermarkDir is the filesystem the watermarks police: where the
// journal lives when durability is on, else the spill directory.
func (s *Server) watermarkDir() string {
	if s.opts.JournalPath != "" {
		return filepath.Dir(s.opts.JournalPath)
	}
	if s.opts.CacheDir != "" {
		return s.opts.CacheDir
	}
	return "."
}

func (s *Server) checkDisk() {
	low := s.opts.DiskLowBytes
	if low <= 0 {
		return
	}
	free, err := diskFreeBytes(s.watermarkDir())
	if arg, fired := faultinject.Hit(faultinject.DiskCritical); fired {
		free, err = int64(arg), nil
	}
	if err != nil {
		// An unreadable filesystem is not "full": leave the flag as is
		// rather than refuse work on a probe failure.
		return
	}
	switch {
	case free < low:
		if !s.diskCritical.Swap(true) {
			s.logf("disk watermark: %d bytes free < %d critical; refusing durable work", free, low)
		}
	case free >= 2*low:
		if s.diskCritical.Swap(false) {
			s.logf("disk watermark: %d bytes free; accepting durable work again", free)
		}
	}
	if free < 2*low && s.opts.CacheDir != "" {
		if n := s.cache.PruneSpills(spillPruneBatch); n > 0 {
			s.m.spillPrunes.Add(int64(n))
			s.logf("disk watermark: pruned %d spill files under pressure", n)
		}
	}
	// The gauge is the tick's last write: a reader that sees it has
	// changed also sees the flag and the prune counter this tick set.
	s.diskFree.Store(free)
}

// checkJournalSize triggers a live compaction once the journal outgrows
// MaxJournalBytes.
func (s *Server) checkJournalSize() {
	max := s.opts.MaxJournalBytes
	if max <= 0 {
		return
	}
	if s.journalStat((*journal.Journal).Size)() <= max {
		return
	}
	if err := s.compactJournal(); err != nil {
		s.logf("journal compaction failed: %v", err)
	}
}

// compactJournal rewrites the live journal to the minimal equivalent
// state — one submit record per queued/running job plus aggregated
// failure counts — exactly what a restart's replay would produce. The
// write lock on jlMu excludes every appender for the duration, so no
// record can land between the state snapshot and the rewritten file;
// lock order is jlMu before mu, matching the crash-simulation hook.
func (s *Server) compactJournal() error {
	s.jlMu.Lock()
	defer s.jlMu.Unlock()
	if s.jl == nil {
		return nil
	}

	s.mu.Lock()
	var still []*replayedJob
	for _, id := range s.order {
		j := s.jobs[id]
		if j == nil {
			continue
		}
		j.mu.Lock()
		state := j.state
		j.mu.Unlock()
		if state != StateQueued && state != StateRunning {
			continue
		}
		still = append(still, &replayedJob{submit: j.submitRecord()})
	}
	fails := make(map[string]int, len(s.failCount))
	for id, n := range s.failCount {
		fails[id] = n
	}
	s.mu.Unlock()

	records, err := compactRecords(still, fails)
	if err != nil {
		return err
	}
	// Rewrite replaces the path atomically while the old handle stays
	// valid; only then is the old handle closed and the new file opened.
	if err := journal.Rewrite(s.opts.JournalPath, records); err != nil {
		return err
	}
	old := s.jl
	jl, err := journal.Open(s.opts.JournalPath)
	if err != nil {
		// The rewritten file is good on disk but unopenable (e.g. fd
		// exhaustion): keep appending to the detached old handle's
		// journal rather than silently dropping durability.
		return err
	}
	s.jl = jl
	old.Close()
	s.m.journalCompactions.Add(1)
	s.logf("journal compacted: %d live submits, %d quarantine counts", len(still), len(fails))
	return nil
}

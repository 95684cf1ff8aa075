// Package journal is a minimal crash-safe append-only record log — the
// write-ahead journal behind hydroserved's durable job queue.
//
// Framing: each record is
//
//	[4-byte LE payload length][4-byte LE CRC32-IEEE of payload][payload]
//
// Appends are group-committed: concurrent callers stage frames into a
// shared batch, one of them (the leader) flushes the whole batch with a
// single write(2) to an O_APPEND descriptor plus a single fsync, and
// every waiter is released together once the batch is durable. The
// commit window is exactly the duration of the previous flush, so an
// uncontended append degenerates to the classic write+fsync and a
// storm of submitters amortizes one fsync across the lot. On return
// from Append the record is durable; on error the caller must assume
// it is not (the file may hold a torn frame, which Replay tolerates).
//
// A flush failure is fail-stop: Replay stops at the first bad frame,
// so any frame appended after a torn or failed write would be durable
// yet unreachable. Rather than ack such ghosts, the journal marks
// itself broken and every later Append fails. Replay walks frames from
// the start and stops at the first frame that does not check out — a
// crash mid-flush leaves a torn tail, and everything before it is
// intact by construction. Rewrite (the compaction primitive) replaces
// the log atomically: temp file + fsync + rename, the same discipline
// the result cache uses for spills.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/hydrogen-sim/hydrogen/internal/faultinject"
)

const frameHeader = 8 // length + CRC

// maxRecord bounds a single record; anything larger in a header means
// the frame is corrupt, not a 4 GB job description.
const maxRecord = 16 << 20

// batch is one group commit in the making: staged frames plus the
// gate its waiters block on. err is written by the leader before done
// is closed, so followers read it race-free.
type batch struct {
	buf  []byte
	n    int // records staged
	done chan struct{}
	err  error
}

// Journal is an open log accepting appends. Safe for concurrent use.
type Journal struct {
	path string

	// mu guards batch formation (cur) and the broken latch; it is held
	// only to stage bytes, never across I/O.
	mu     sync.Mutex
	cur    *batch
	broken error

	// flushMu serializes flushes; the leader of the next batch blocks
	// here while the previous batch fsyncs, which is what gives later
	// arrivals their window to join.
	flushMu sync.Mutex
	f       *os.File

	appends atomic.Int64 // records made durable
	syncs   atomic.Int64 // fsync batches issued

	unbatched bool // every append flushes alone (baseline for benches)
}

// Open opens (creating if needed) the journal at path for appending
// with group commit enabled.
func Open(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open: %w", err)
	}
	return &Journal{path: path, f: f}, nil
}

// OpenUnbatched opens the journal with group commit disabled: every
// Append performs its own write+fsync, the one-fsync-per-record
// behavior group commit replaced. It exists as the baseline arm of the
// benchmark's journal.append_us_serial metric (bench/); production
// callers want Open.
func OpenUnbatched(path string) (*Journal, error) {
	j, err := Open(path)
	if err != nil {
		return nil, err
	}
	j.unbatched = true
	return j, nil
}

// Path returns the file the journal appends to.
func (j *Journal) Path() string { return j.path }

// Appends reports how many records have been made durable.
func (j *Journal) Appends() int64 { return j.appends.Load() }

// Syncs reports how many fsync batches (group commits) have been
// issued; Appends()/Syncs() is the achieved batching factor.
func (j *Journal) Syncs() int64 { return j.syncs.Load() }

// Append frames payload, stages it into the current batch, and returns
// once the batch is durable: the first stager becomes the leader and
// flushes everything staged behind one write + one fsync; later
// stagers just wait. On nil return the record is on disk.
func (j *Journal) Append(payload []byte) error {
	if _, fired := faultinject.Hit(faultinject.JournalAppendErr); fired {
		return errors.New("journal: faultinject: append error")
	}
	j.mu.Lock()
	if j.broken != nil {
		err := j.broken
		j.mu.Unlock()
		return err
	}
	if j.unbatched {
		j.mu.Unlock()
		return j.appendUnbatched(payload)
	}
	leader := j.cur == nil
	if leader {
		j.cur = &batch{done: make(chan struct{})}
	}
	b := j.cur
	b.buf = binary.LittleEndian.AppendUint32(b.buf, uint32(len(payload)))
	b.buf = binary.LittleEndian.AppendUint32(b.buf, crc32.ChecksumIEEE(payload))
	b.buf = append(b.buf, payload...)
	b.n++
	j.mu.Unlock()

	if !leader {
		<-b.done
		return b.err
	}
	// Leader: wait out any in-flight flush — appends arriving meanwhile
	// join this batch — then detach the batch and make it durable. The
	// yield matters on small hosts: when flushMu is free (no flush in
	// flight), the leader would otherwise detach its batch before any
	// runnable peer gets scheduled to join it, collapsing the group to
	// one record per fsync.
	runtime.Gosched()
	j.flushMu.Lock()
	j.mu.Lock()
	j.cur = nil
	j.mu.Unlock()
	b.err = j.flush(b)
	j.flushMu.Unlock()
	close(b.done)
	return b.err
}

// flush writes and fsyncs one detached batch; flushMu must be held.
// Any failure latches the journal broken (see the package comment for
// why acking appends past a bad frame would be a durability lie).
func (j *Journal) flush(b *batch) error {
	// Recheck the fail-stop latch: a leader that passed Append's broken
	// check and then blocked on flushMu may only acquire it AFTER the
	// previous batch's flush failed and latched. Writing now would put
	// frames beyond the torn one — durable yet unreachable, since Replay
	// stops at the first bad frame — so return the latched error instead.
	j.mu.Lock()
	if err := j.broken; err != nil {
		j.mu.Unlock()
		return err
	}
	j.mu.Unlock()
	if _, fired := faultinject.Hit(faultinject.JournalTornWrite); fired {
		// Simulate a crash mid-flush: the write tears inside the batch's
		// FIRST frame, so no record in the batch survives replay and the
		// whole batch reports failure. Tearing at the head (rather than
		// halfway through the buffer) keeps chaos tests deterministic no
		// matter how many submits happened to share the batch — a midway
		// tear would leave a valid prefix of complete frames that replays
		// records whose submitters were refused.
		first := frameHeader + int(binary.LittleEndian.Uint32(b.buf))
		j.f.Write(b.buf[:first/2])
		j.f.Sync()
		return j.breakWith(errors.New("journal: faultinject: torn write"))
	}
	if _, err := j.f.Write(b.buf); err != nil {
		return j.breakWith(fmt.Errorf("journal: append: %w", err))
	}
	if err := j.f.Sync(); err != nil {
		return j.breakWith(fmt.Errorf("journal: fsync: %w", err))
	}
	j.appends.Add(int64(b.n))
	j.syncs.Add(1)
	return nil
}

// breakWith latches the journal into the broken state and returns err.
func (j *Journal) breakWith(err error) error {
	j.mu.Lock()
	j.broken = fmt.Errorf("journal: closed to writes after flush failure: %w", err)
	j.mu.Unlock()
	return err
}

// appendUnbatched is the group-commit-free arm: frame, write, fsync,
// all under flushMu — the pre-group-commit serialization.
func (j *Journal) appendUnbatched(payload []byte) error {
	b := &batch{}
	b.buf = binary.LittleEndian.AppendUint32(b.buf, uint32(len(payload)))
	b.buf = binary.LittleEndian.AppendUint32(b.buf, crc32.ChecksumIEEE(payload))
	b.buf = append(b.buf, payload...)
	b.n = 1
	j.flushMu.Lock()
	defer j.flushMu.Unlock()
	return j.flush(b)
}

// Size reports the journal file's current length in bytes — the
// hydroserved_journal_bytes gauge. A stat failure reads as zero.
func (j *Journal) Size() int64 {
	j.flushMu.Lock()
	defer j.flushMu.Unlock()
	st, err := j.f.Stat()
	if err != nil {
		return 0
	}
	return st.Size()
}

// Close closes the underlying file. Appends after Close fail.
func (j *Journal) Close() error {
	j.flushMu.Lock()
	defer j.flushMu.Unlock()
	return j.f.Close()
}

// Replay reads the log at path and calls fn for every intact record in
// order. A missing file is an empty journal. Replay stops without
// error at the first torn or corrupt frame — the crash-truncation
// case — and reports the length of the valid prefix alongside the
// total file size so the caller can detect (and compact away) a torn
// tail. An error from fn aborts the replay and is returned.
func Replay(path string, fn func(payload []byte) error) (valid, size int64, err error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("journal: read: %w", err)
	}
	size = int64(len(data))
	off := 0
	for len(data)-off >= frameHeader {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if n > maxRecord || len(data)-off-frameHeader < n {
			break // torn or corrupt length: stop at the valid prefix
		}
		payload := data[off+frameHeader : off+frameHeader+n]
		if crc32.ChecksumIEEE(payload) != sum {
			break
		}
		if err := fn(payload); err != nil {
			return int64(off), size, err
		}
		off += frameHeader + n
	}
	return int64(off), size, nil
}

// Rewrite atomically replaces the log at path with the given records:
// the frames are written to a temp file in the same directory, fsynced,
// and renamed over path, so a crash leaves either the old log or the
// new one, never a mix. This is the compaction primitive.
func Rewrite(path string, records [][]byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	var buf []byte
	for _, payload := range records {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
		buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
		buf = append(buf, payload...)
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return fmt.Errorf("journal: compact: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("journal: compact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	// Durability of the rename itself: fsync the directory; best-effort
	// on platforms where directories cannot be synced.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

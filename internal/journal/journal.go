// Package journal is a minimal crash-safe append-only record log — the
// write-ahead journal behind hydroserved's durable job queue.
//
// Framing: each record is
//
//	[4-byte LE payload length][4-byte LE CRC32-IEEE of payload][payload]
//
// Append writes one frame and fsyncs it under one lock: on return the
// record is durable; on error the caller must assume it is not (the
// file may hold a torn frame, which Replay tolerates).
//
// A write failure is fail-stop: Replay stops at the first bad frame,
// so any frame appended after a torn or failed write would be durable
// yet unreachable. Rather than ack such ghosts, the journal marks
// itself broken and every later Append fails. Replay walks frames from
// the start and stops at the first frame that does not check out — a
// crash mid-append leaves a torn tail, and everything before it is
// intact by construction. Compact (and Rewrite, its closed-file form)
// replaces the log atomically: temp file + fsync + rename, the same
// discipline the result cache uses for spills.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"github.com/hydrogen-sim/hydrogen/internal/faultinject"
)

const frameHeader = 8 // length + CRC

// maxRecord bounds a single record; anything larger in a header means
// the frame is corrupt, not a 4 GB job description.
const maxRecord = 16 << 20

var errClosed = errors.New("journal: closed")

// Journal is an open log accepting appends. Safe for concurrent use.
type Journal struct {
	path string

	// mu serializes appends, compaction and close: it guards the file
	// handle (which Compact swaps) and the broken latch.
	mu     sync.Mutex
	f      *os.File
	broken error

	appends atomic.Int64 // records made durable
}

// Open opens (creating if needed) the journal at path for appending.
func Open(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open: %w", err)
	}
	return &Journal{path: path, f: f}, nil
}

// OpenUnbatched is Open. It remains only because the repository
// benchmark (bench/cold.go) still times it as its journal.append_us_serial
// arm; it goes when that benchmark drops the metric.
func OpenUnbatched(path string) (*Journal, error) { return Open(path) }

// Appends reports how many records have been made durable.
func (j *Journal) Appends() int64 { return j.appends.Load() }

// Syncs reports how many fsyncs appends have issued: one per append,
// so it equals Appends. It remains only because the repository
// benchmark (bench/cold.go) still divides by the
// hydroserved_journal_syncs_total metric it feeds.
func (j *Journal) Syncs() int64 { return j.appends.Load() }

// Append frames payload, writes it and fsyncs it. On nil return the
// record is on disk.
func (j *Journal) Append(payload []byte) error {
	if _, fired := faultinject.Hit(faultinject.JournalAppendErr); fired {
		return errors.New("journal: faultinject: append error")
	}
	frame := appendFrame(nil, payload)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.broken != nil {
		return j.broken
	}
	var err error
	if _, fired := faultinject.Hit(faultinject.JournalTornWrite); fired {
		// Simulate a crash mid-append: half the frame reaches the disk,
		// so this record fails replay's checks.
		writeSync(j.f, frame[:len(frame)/2])
		err = errors.New("journal: faultinject: torn write")
	} else {
		err = writeSync(j.f, frame)
	}
	if err != nil {
		// See the package comment for why acking appends past a bad
		// frame would be a durability lie.
		j.broken = fmt.Errorf("journal: closed to writes after failed append: %w", err)
		return err
	}
	j.appends.Add(1)
	return nil
}

// Compact atomically replaces the log with the records snapshot
// returns and keeps appending to the new file. It holds the append
// lock throughout — snapshot, temp file write + fsync, rename, handle
// swap — so no record lands between the snapshot and the rewritten
// file, and no append can reach the old, unlinked inode. snapshot must
// not call Append. On error the journal is unchanged.
func (j *Journal) Compact(snapshot func() ([][]byte, error)) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.broken != nil {
		return j.broken
	}
	records, err := snapshot()
	if err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	f, err := replace(j.path, records)
	if err != nil {
		return err
	}
	j.f.Close()
	j.f = f
	return nil
}

// Size reports the journal file's current length in bytes — the
// hydroserved_journal_bytes gauge. A stat failure reads as zero.
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	st, err := j.f.Stat()
	if err != nil {
		return 0
	}
	return st.Size()
}

// Close closes the underlying file. Appends and compactions after
// Close fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.broken = errClosed
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

// Rewrite atomically replaces the log at path with the given records,
// for a log no Journal has open: Compact without the handle swap.
func Rewrite(path string, records [][]byte) error {
	f, err := replace(path, records)
	if err != nil {
		return err
	}
	return f.Close()
}

// replace writes records to a temp file in path's directory, fsyncs
// it, and renames it over path, so a crash leaves either the old log
// or the new one, never a mix. It returns the temp file still open and
// positioned at its end, ready for appends.
func replace(path string, records [][]byte) (*os.File, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return nil, fmt.Errorf("journal: compact: %w", err)
	}
	var buf []byte
	for _, payload := range records {
		buf = appendFrame(buf, payload)
	}
	if err = writeSync(tmp, buf); err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, fmt.Errorf("journal: compact: %w", err)
	}
	// Durability of the rename itself: fsync the directory; best-effort
	// on platforms where directories cannot be synced.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return tmp, nil
}

// appendFrame appends payload's frame to buf.
func appendFrame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// writeSync writes buf to f and fsyncs it.
func writeSync(f *os.File, buf []byte) error {
	if _, err := f.Write(buf); err != nil {
		return fmt.Errorf("journal: write: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	return nil
}

package journal_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/hydrogen-sim/hydrogen/internal/faultinject"
	"github.com/hydrogen-sim/hydrogen/internal/journal"
)

func replayAll(t *testing.T, path string) (records [][]byte, valid, size int64) {
	t.Helper()
	valid, size, err := journal.Replay(path, func(p []byte) error {
		records = append(records, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return records, valid, size
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte("one"), []byte(""), bytes.Repeat([]byte{0xAB}, 4096)}
	for _, p := range want {
		if err := j.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, valid, size := replayAll(t, path)
	if valid != size {
		t.Fatalf("clean log: valid %d != size %d", valid, size)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestReplayMissingFile(t *testing.T) {
	_, valid, size := replayAll(t, filepath.Join(t.TempDir(), "absent.wal"))
	if valid != 0 || size != 0 {
		t.Fatalf("missing file: valid=%d size=%d", valid, size)
	}
}

// TestTornWriteTolerated: a crash mid-append (simulated via the
// torn-write failpoint) leaves a half frame; replay returns every
// record before it and reports the torn tail.
func TestTornWriteTolerated(t *testing.T) {
	defer faultinject.Reset()
	path := filepath.Join(t.TempDir(), "j.wal")
	j, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append([]byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("beta")); err != nil {
		t.Fatal(err)
	}
	faultinject.Set(faultinject.JournalTornWrite, 1, 0)
	if err := j.Append([]byte("gamma-never-lands")); err == nil {
		t.Fatal("torn write reported success")
	}
	got, valid, size := replayAll(t, path)
	if len(got) != 2 || string(got[0]) != "alpha" || string(got[1]) != "beta" {
		t.Fatalf("replay after torn write: %q", got)
	}
	if valid >= size {
		t.Fatalf("torn tail not reported: valid=%d size=%d", valid, size)
	}
}

// TestCorruptRecordStopsReplay: a bit flip in a record's payload fails
// its CRC; replay stops there rather than delivering garbage.
func TestCorruptRecordStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("good")); err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("soon-corrupt")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, valid, size := replayAll(t, path)
	if len(got) != 1 || string(got[0]) != "good" {
		t.Fatalf("replay past corrupt record: %q", got)
	}
	if valid >= size {
		t.Fatal("corruption not reflected in valid < size")
	}
}

func TestAppendErrorFailpoint(t *testing.T) {
	defer faultinject.Reset()
	path := filepath.Join(t.TempDir(), "j.wal")
	j, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	faultinject.Set(faultinject.JournalAppendErr, 1, 0)
	if err := j.Append([]byte("x")); err == nil {
		t.Fatal("armed append-error failpoint did not fail the append")
	}
	if err := j.Append([]byte("y")); err != nil {
		t.Fatalf("append after charges spent: %v", err)
	}
	got, _, _ := replayAll(t, path)
	if len(got) != 1 || string(got[0]) != "y" {
		t.Fatalf("log contents after injected error: %q", got)
	}
}

// TestRewriteCompacts: Rewrite atomically replaces the log (including
// one with a torn tail) with exactly the given records.
func TestRewriteCompacts(t *testing.T) {
	defer faultinject.Reset()
	path := filepath.Join(t.TempDir(), "j.wal")
	j, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"a", "b", "c"} {
		if err := j.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	faultinject.Set(faultinject.JournalTornWrite, 1, 0)
	j.Append([]byte("torn"))
	j.Close()

	if err := journal.Rewrite(path, [][]byte{[]byte("kept")}); err != nil {
		t.Fatal(err)
	}
	got, valid, size := replayAll(t, path)
	if len(got) != 1 || string(got[0]) != "kept" {
		t.Fatalf("compacted log: %q", got)
	}
	if valid != size {
		t.Fatalf("compacted log still has a torn tail: valid=%d size=%d", valid, size)
	}
	// Appends continue to work against the compacted file.
	j2, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	got, _, _ = replayAll(t, path)
	if len(got) != 2 || string(got[1]) != "after" {
		t.Fatalf("append after compaction: %q", got)
	}
}

// TestConcurrentAppendsAllDurable: a storm of concurrent appends loses
// nothing and corrupts nothing — every record comes back on replay,
// each exactly once, and the durable-append counter agrees.
func TestConcurrentAppendsAllDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 16, 32
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				if err := j.Append(fmt.Appendf(nil, "w%02d-k%02d", w, k)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if got := j.Appends(); got != workers*per {
		t.Fatalf("Appends() = %d, want %d", got, workers*per)
	}
	if syncs := j.Syncs(); syncs != workers*per {
		t.Fatalf("Syncs() = %d, want %d (one per append)", syncs, workers*per)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, valid, size := replayAll(t, path)
	if valid != size {
		t.Fatalf("concurrent log: valid %d != size %d", valid, size)
	}
	seen := make(map[string]bool, len(got))
	for _, p := range got {
		if seen[string(p)] {
			t.Fatalf("record %q replayed twice", p)
		}
		seen[string(p)] = true
	}
	if len(seen) != workers*per {
		t.Fatalf("replayed %d distinct records, want %d", len(seen), workers*per)
	}
}

// TestFailStopAfterTornWrite: once a flush fails, the journal refuses
// every later append. Replay stops at the first bad frame, so a record
// appended after a torn one would be durable yet unreachable — acking
// it would break the 202 ⇒ replayable invariant upstream.
func TestFailStopAfterTornWrite(t *testing.T) {
	defer faultinject.Reset()
	path := filepath.Join(t.TempDir(), "j.wal")
	j, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append([]byte("before")); err != nil {
		t.Fatal(err)
	}
	faultinject.Set(faultinject.JournalTornWrite, 1, 0)
	if err := j.Append([]byte("torn")); err == nil {
		t.Fatal("torn write reported success")
	}
	if err := j.Append([]byte("after")); err == nil {
		t.Fatal("append after a failed flush succeeded; journal must fail-stop")
	}
	got, valid, size := replayAll(t, path)
	if len(got) != 1 || string(got[0]) != "before" {
		t.Fatalf("replay after fail-stop: %q", got)
	}
	if valid >= size {
		t.Fatalf("torn tail not reported: valid=%d size=%d", valid, size)
	}
}

func TestRewriteEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	if err := journal.Rewrite(path, nil); err != nil {
		t.Fatal(err)
	}
	got, valid, size := replayAll(t, path)
	if len(got) != 0 || valid != 0 || size != 0 {
		t.Fatalf("empty rewrite: records=%d valid=%d size=%d", len(got), valid, size)
	}
}

// TestCompactRacesAppends: appenders race repeated compactions. Each
// appender marks its record pending before Append, the way the server
// mints a job before journaling its submit record, and the snapshot
// returns the pending records plus the acked ones. Since Compact holds
// the append lock from snapshot to handle swap, every acked record
// must replay from the final file, and the file must end on a whole
// frame.
func TestCompactRacesAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	pending := make(map[string]bool)
	acked := make(map[string]bool)
	snapshot := func() ([][]byte, error) {
		mu.Lock()
		defer mu.Unlock()
		var out [][]byte
		for rec := range pending {
			out = append(out, []byte(rec))
		}
		for rec := range acked {
			out = append(out, []byte(rec))
		}
		return out, nil
	}

	const workers, per = 8, 40
	var wg sync.WaitGroup
	errs := make(chan error, workers+1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				rec := fmt.Sprintf("w%02d-k%02d", w, k)
				mu.Lock()
				pending[rec] = true
				mu.Unlock()
				err := j.Append([]byte(rec))
				mu.Lock()
				delete(pending, rec)
				if err == nil {
					acked[rec] = true
				}
				mu.Unlock()
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	compacted := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				compacted <- n
				return
			default:
			}
			if err := j.Compact(snapshot); err != nil {
				errs <- err
				compacted <- n
				return
			}
			n++
		}
	}()
	wg.Wait()
	close(stop)
	n := <-compacted
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if n == 0 {
		t.Fatal("no compaction ran while the appenders did")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, valid, size := replayAll(t, path)
	if valid != size {
		t.Fatalf("torn tail after compactions: valid=%d size=%d", valid, size)
	}
	seen := make(map[string]bool, len(got))
	for _, p := range got {
		seen[string(p)] = true
	}
	for rec := range acked {
		if !seen[rec] {
			t.Fatalf("acked record %q missing after %d compactions", rec, n)
		}
	}
	if len(acked) != workers*per {
		t.Fatalf("%d records acked, want %d", len(acked), workers*per)
	}
}

// TestCompactFailureLeavesJournal: a failed snapshot leaves the log
// and the append handle as they were.
func TestCompactFailureLeavesJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(func() ([][]byte, error) { return nil, errors.New("no snapshot") }); err == nil {
		t.Fatal("Compact with a failing snapshot returned nil")
	}
	if err := j.Append([]byte("b")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if err := j.Compact(func() ([][]byte, error) { return nil, nil }); err == nil {
		t.Fatal("Compact after Close returned nil")
	}
	got, _, _ := replayAll(t, path)
	if len(got) != 2 || string(got[0]) != "a" || string(got[1]) != "b" {
		t.Fatalf("log after failed compactions: %q", got)
	}
}

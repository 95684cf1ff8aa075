package obs

import (
	"bufio"
	"bytes"
	"strings"
	"sync"
	"testing"
)

func point(epoch int) EpochPoint {
	return EpochPoint{
		Epoch:       epoch,
		EndCycle:    uint64(epoch+1) * 1000,
		CPUIPC:      0.5,
		GPUIPC:      1.5,
		WeightedIPC: 0.75,
		CapWays:     4, BwGroups: 2, TokIdx: 1,
		TokensGranted: 10, TokensDenied: 3,
		MigrationsCPU: 7, MigrationsGPU: 2, Bypassed: 1, Swaps: 4,
		DemandCPU: 100, DemandGPU: 900, FastHitsCPU: 80, FastHitsGPU: 500,
		FastUtil: 0.625, SlowUtil: 0.25,
	}
}

// newest is the ring's most recent point: the last of its snapshot.
func newest(r *Ring) (EpochPoint, bool) {
	snap := r.Snapshot()
	if len(snap) == 0 {
		return EpochPoint{}, false
	}
	return snap[len(snap)-1], true
}

func TestRingWrapAround(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Append(point(i))
	}
	if got := r.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := r.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("Snapshot len = %d, want 4", len(snap))
	}
	for i, p := range snap {
		if want := 6 + i; p.Epoch != want {
			t.Errorf("snap[%d].Epoch = %d, want %d (oldest first)", i, p.Epoch, want)
		}
	}
	last, ok := newest(r)
	if !ok || last.Epoch != 9 {
		t.Fatalf("newest = (%v, %v), want epoch 9", last.Epoch, ok)
	}
}

func TestRingPartialFill(t *testing.T) {
	r := NewRing(8)
	if _, ok := newest(r); ok {
		t.Fatal("empty ring reported a newest point")
	}
	if snap := r.Snapshot(); len(snap) != 0 {
		t.Fatalf("empty ring Snapshot len = %d", len(snap))
	}
	for i := 0; i < 3; i++ {
		r.Append(point(i))
	}
	if got := r.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	if got := r.Dropped(); got != 0 {
		t.Fatalf("Dropped = %d, want 0", got)
	}
	snap := r.Snapshot()
	for i, p := range snap {
		if p.Epoch != i {
			t.Errorf("snap[%d].Epoch = %d", i, p.Epoch)
		}
	}
}

func TestRingMinimumCapacity(t *testing.T) {
	for _, capacity := range []int{-5, 0, 1} {
		r := NewRing(capacity)
		r.Append(point(0))
		r.Append(point(1))
		if got := r.Len(); got != 1 {
			t.Fatalf("NewRing(%d): Len = %d, want 1", capacity, got)
		}
		if last, _ := newest(r); last.Epoch != 1 {
			t.Fatalf("NewRing(%d): kept epoch %d, want newest (1)", capacity, last.Epoch)
		}
	}
}

// TestRingGrowsToCapacity walks a ring across its capacity edge: the
// buffer grows with the points it holds and never past the capacity,
// and the first append beyond it overwrites the oldest point.
func TestRingGrowsToCapacity(t *testing.T) {
	const capacity = 5
	r := NewRing(capacity)
	if c := cap(r.buf); c != 0 {
		t.Fatalf("empty ring holds a buffer of %d points", c)
	}
	for i := 0; i < capacity+2; i++ {
		r.Append(point(i))
		if c := cap(r.buf); c > capacity {
			t.Fatalf("after %d appends the buffer holds %d points, capacity %d", i+1, c, capacity)
		}
		held := min(i+1, capacity)
		if got := r.Len(); got != held {
			t.Fatalf("after %d appends Len = %d, want %d", i+1, got, held)
		}
		if got, want := r.Dropped(), uint64(i+1-held); got != want {
			t.Fatalf("after %d appends Dropped = %d, want %d", i+1, got, want)
		}
		snap := r.Snapshot()
		for j, p := range snap {
			if want := i + 1 - held + j; p.Epoch != want {
				t.Fatalf("after %d appends snap[%d].Epoch = %d, want %d", i+1, j, p.Epoch, want)
			}
		}
		if last, ok := newest(r); !ok || last.Epoch != i {
			t.Fatalf("after %d appends newest = (%d, %v), want epoch %d", i+1, last.Epoch, ok, i)
		}
	}
}

// TestRingBoundedMemory appends far beyond capacity and checks the ring
// never retains more than its bound — the property that lets a multi-day
// run stream telemetry forever without growing the heap.
func TestRingBoundedMemory(t *testing.T) {
	const capacity = 16
	r := NewRing(capacity)
	for i := 0; i < 100*capacity; i++ {
		r.Append(point(i))
		if got := r.Len(); got > capacity {
			t.Fatalf("after %d appends Len = %d > capacity %d", i+1, got, capacity)
		}
	}
	if got := len(r.Snapshot()); got != capacity {
		t.Fatalf("Snapshot len = %d, want %d", got, capacity)
	}
	if got, want := r.Dropped(), uint64(99*capacity); got != want {
		t.Fatalf("Dropped = %d, want %d", got, want)
	}
}

// TestRingConcurrent runs a writer against snapshotting readers; under
// -race this doubles as the data-race check for the serve layer's
// one-writer/many-readers usage. Every snapshot must be a contiguous,
// strictly increasing window of the append sequence.
func TestRingConcurrent(t *testing.T) {
	const appends = 5000
	r := NewRing(64)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for reader := 0; reader < 4; reader++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := r.Snapshot()
				for i := 1; i < len(snap); i++ {
					if snap[i].Epoch != snap[i-1].Epoch+1 {
						t.Errorf("snapshot not contiguous: %d then %d", snap[i-1].Epoch, snap[i].Epoch)
						return
					}
				}
				r.Len()
				r.Dropped()
			}
		}()
	}
	for i := 0; i < appends; i++ {
		r.Append(point(i))
	}
	close(done)
	wg.Wait()
	if last, ok := newest(r); !ok || last.Epoch != appends-1 {
		t.Fatalf("final newest = (%v, %v), want epoch %d", last.Epoch, ok, appends-1)
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	pts := []EpochPoint{point(0), point(1)}
	if err := WriteCSV(&buf, pts); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	if !sc.Scan() {
		t.Fatal("no header line")
	}
	header := strings.Split(sc.Text(), ",")
	want := CSVHeader()
	if len(header) != len(want) {
		t.Fatalf("header has %d columns, want %d", len(header), len(want))
	}
	for i := range header {
		if header[i] != want[i] {
			t.Errorf("header[%d] = %q, want %q", i, header[i], want[i])
		}
	}
	rows := 0
	for sc.Scan() {
		fields := strings.Split(sc.Text(), ",")
		if len(fields) != len(header) {
			t.Fatalf("row %d has %d fields, want %d", rows, len(fields), len(header))
		}
		rows++
	}
	if rows != len(pts) {
		t.Fatalf("wrote %d rows, want %d", rows, len(pts))
	}

	// The exact bytes: integers in decimal, floats in their shortest
	// round-trip form, a negative knob as -1, and LF line endings.
	buf.Reset()
	p := point(2)
	p.CPUIPC, p.CapWays, p.BwGroups, p.TokIdx = 1.0/3, -1, -1, -1
	if err := WriteCSV(&buf, []EpochPoint{p}); err != nil {
		t.Fatal(err)
	}
	const wantCSV = "epoch,end_cycle,cpu_ipc,gpu_ipc,weighted_ipc,cap_ways,bw_groups,tok_idx," +
		"tokens_granted,tokens_denied,migrations_cpu,migrations_gpu,bypassed,swaps," +
		"demand_cpu,demand_gpu,fast_hits_cpu,fast_hits_gpu,fast_util,slow_util\n" +
		"2,3000,0.3333333333333333,1.5,0.75,-1,-1,-1,10,3,7,2,1,4,100,900,80,500,0.625,0.25\n"
	if got := buf.String(); got != wantCSV {
		t.Fatalf("WriteCSV bytes:\n%q\nwant\n%q", got, wantCSV)
	}
}

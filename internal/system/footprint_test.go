package system

import (
	"runtime"
	"testing"

	"github.com/hydrogen-sim/hydrogen/internal/workloads"
)

// footprintCeilings bounds, in KB, what New and then Run allocate for a
// Quick() run of 1.2 M cycles, seed 1, and for one short job (see
// footprintConfig). Like the event ceilings in fingerprint_test.go, the counts
// repeat run to run (within 6 KB between test processes), so a change
// that shrinks the footprint lowers a ceiling and one that grows it must
// raise the ceiling here, in the open.
// The ceilings sit about 3 % above the counts measured with Go 1.24 on
// amd64 (New 1 514-1 520 KB with the Zipf tables already built, 1 716-
// 2 013 KB when it builds them; Run 829, 879-885, 572 and 614 KB; the
// short job New 709 KB, Run 705 KB), to absorb allocator size-class
// changes between Go releases.
var footprintCeilings = map[string][2]uint64{
	"C1 Baseline":       {1560, 855},
	"C1 Hydrogen":       {1565, 912},
	"C5 Baseline":       {1560, 590},
	"C5 Hydrogen":       {1565, 633},
	"short C1 Hydrogen": {730, 727},
}

// footprintConfig returns the Quick() config of 1.2 M cycles, or of a
// short job, for combo and design. A short job is the shape of the jobs
// the benchmark's serving workloads submit (jobRequest in
// bench/serve.go): two 10 k-cycle epochs on a 4 MB fast tier, so what it
// costs is mostly what every job pays to be built and started.
func footprintConfig(tb testing.TB, combo, design string, short bool) (Config, PolicyFactory) {
	c, err := workloads.ComboByID(combo)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := Quick()
	cfg.Cycles = 1_200_000
	if short {
		cfg.Hybrid.FastCapacityBytes = 4 << 20
		cfg.Hybrid.RemapCacheBytes = 16 << 10
		cfg.LLC.SizeBytes = 256 << 10
		cfg.EpochLen = 10_000
		cfg.Cycles = 20_000
	}
	cfg.CPUProfiles = c.CPUAssignment(cfg.Cores)
	cfg.GPUProfile = c.GPU
	factory, err := ApplyDesign(&cfg, design)
	if err != nil {
		tb.Fatal(err)
	}
	return cfg, factory
}

func TestFootprintCeilings(t *testing.T) {
	for _, tc := range []struct {
		combo, design string
		short         bool
	}{
		{"C1", DesignBaseline, false}, {"C1", DesignHydrogen, false},
		{"C5", DesignBaseline, false}, {"C5", DesignHydrogen, false},
		{"C1", DesignHydrogen, true},
	} {
		name := tc.combo + " " + tc.design
		if tc.short {
			name = "short " + name
		}
		cfg, factory := footprintConfig(t, tc.combo, tc.design, tc.short)
		// The first New in a process also builds the CPU generators'
		// shared Zipf tables (trace.sharedZipfTable), so its count
		// depends on which test ran first; the ceiling bounds the
		// second, which finds them built.
		var m0, m1, m2 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := New(cfg, factory); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		firstKB := (m1.TotalAlloc - m0.TotalAlloc) >> 10
		runtime.ReadMemStats(&m0)
		sys, err := New(cfg, factory)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		sys.Run()
		runtime.ReadMemStats(&m2)
		newKB, runKB := (m1.TotalAlloc-m0.TotalAlloc)>>10, (m2.TotalAlloc-m1.TotalAlloc)>>10
		t.Logf("%s: first New %d KB, New %d KB, Run %d KB", name, firstKB, newKB, runKB)
		ceil := footprintCeilings[name]
		if runtime.GOARCH == "amd64" && (newKB > ceil[0] || runKB > ceil[1]) {
			t.Errorf("%s: New %d KB, Run %d KB; ceilings %d and %d KB", name, newKB, runKB, ceil[0], ceil[1])
		}
	}
}

// BenchmarkShortJob times New and Run of one short job, whose cost is
// mostly what every simulation pays to be built and started.
func BenchmarkShortJob(b *testing.B) {
	cfg, factory := footprintConfig(b, "C1", DesignHydrogen, true)
	// The first New in a process builds the shared Zipf tables, which a
	// daemon pays once, not per job.
	if _, err := New(cfg, factory); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := New(cfg, factory)
		if err != nil {
			b.Fatal(err)
		}
		sys.Run()
		shortJobSink = sys
	}
}

var shortJobSink *System

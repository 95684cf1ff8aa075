package system

import (
	"runtime"
	"testing"

	"github.com/hydrogen-sim/hydrogen/internal/workloads"
)

// footprintCeilings bounds, in KB, what New and then Run allocate for a
// Quick() run of 1.2 M cycles, seed 1. Like the event
// ceilings in fingerprint_test.go, the counts repeat run to run, so a
// change that shrinks the footprint lowers a ceiling and one that grows
// it must raise the ceiling here, in the open.
// The ceilings sit about 3 % above the counts measured with Go 1.24 on
// amd64 (New 1 513-1 518 KB with the Zipf tables already built, 1 715-
// 2 012 KB when it builds them; Run 3 089, 3 129-3 135, 2 165 and
// 2 091-2 097 KB), to absorb allocator size-class changes between Go
// releases.
var footprintCeilings = map[string][2]uint64{
	"C1 Baseline": {1560, 3180},
	"C1 Hydrogen": {1565, 3225},
	"C5 Baseline": {1560, 2230},
	"C5 Hydrogen": {1565, 2160},
}

func TestFootprintCeilings(t *testing.T) {
	for _, tc := range []struct{ combo, design string }{
		{"C1", DesignBaseline}, {"C1", DesignHydrogen},
		{"C5", DesignBaseline}, {"C5", DesignHydrogen},
	} {
		name := tc.combo + " " + tc.design
		combo, err := workloads.ComboByID(tc.combo)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Quick()
		cfg.Cycles = 1_200_000
		cfg.CPUProfiles = combo.CPUAssignment(cfg.Cores)
		cfg.GPUProfile = combo.GPU
		factory, err := ApplyDesign(&cfg, tc.design)
		if err != nil {
			t.Fatal(err)
		}
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

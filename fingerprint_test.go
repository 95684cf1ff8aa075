// Result fingerprints: a SHA-256 over the JSON encoding of Results —
// the bytes the serve layer caches — for a grid of (design, combo) runs
// at a reduced quick configuration, compared against golden values.
// They pin the simulated machine bit for bit, so a refactor that must
// not change results is checked by this test passing unedited.
//
// A change that alters simulated behaviour on purpose (a model fix, a
// new RNG, a different same-tick order) bumps system.ModelVersion and
// adds the goldens re-derived from this test's log under the new
// version, so the content addresses of served results change with the
// model. A hash that changes under an unchanged version fails. The goldens
// were derived on amd64; other architectures may fuse floating-point
// multiply-adds differently, so there the hashes are only logged.
// DESIGN.md §9 describes the workflow.
//
// Each run's engine event count is logged too, and on amd64 must not
// exceed its ceiling in eventCeilings.
package hydrogen

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"github.com/hydrogen-sim/hydrogen/internal/system"
	"github.com/hydrogen-sim/hydrogen/internal/workloads"
)

// goldenFingerprints holds, per system.ModelVersion, the first 8 bytes
// of each run's hash, keyed by "combo design".
var goldenFingerprints = map[string]map[string]string{
	"1": {
		"C1 Baseline": "46b8e76e857408e3",
		"C1 WayPart":  "bac95899af1cfd25",
		"C1 Hydrogen": "4cddd0a3466aea94",
		"C1 Profess":  "a8f7ed30f4165368",
		"C5 Baseline": "8c15e75c333e6ac7",
		"C5 WayPart":  "d32355366d7969ce",
		"C5 Hydrogen": "88ac41b29c2c7738",
		"C5 Profess":  "3c8d7cf7170be298",
	},
}

// eventCeilings bounds each golden run's engine event count. Counts
// repeat exactly, so they guard the simulator's cost per run without
// timing noise: a change that cuts events lowers a ceiling to the new
// count, and one that adds events must raise it here, in the open.
var eventCeilings = map[string]uint64{
	"C1 Baseline": 1164912,
	"C1 WayPart":  1018664,
	"C1 Hydrogen": 1179154,
	"C1 Profess":  1140841,
	"C5 Baseline": 419741,
	"C5 WayPart":  416485,
	"C5 Hydrogen": 400095,
	"C5 Profess":  411240,
}

func TestResultFingerprint(t *testing.T) {
	cfg := system.Quick()
	cfg.Hybrid.FastCapacityBytes = 4 << 20
	cfg.Hybrid.RemapCacheBytes = 16 << 10
	cfg.LLC.SizeBytes = 256 << 10
	cfg.EpochLen = 50_000
	cfg.Cycles = 200_000

	golden, ok := goldenFingerprints[system.ModelVersion]
	if !ok {
		t.Fatalf("no goldens for model version %q", system.ModelVersion)
	}
	for _, comboID := range []string{"C1", "C5"} {
		combo, err := workloads.ComboByID(comboID)
		if err != nil {
			t.Fatal(err)
		}
		for _, design := range []string{
			system.DesignBaseline, system.DesignWayPart,
			system.DesignHydrogen, system.DesignProfess,
		} {
			run := cfg
			run.CPUProfiles = combo.CPUAssignment(run.Cores)
			run.GPUProfile = combo.GPU
			factory, err := system.ApplyDesign(&run, design)
			if err != nil {
				t.Fatalf("%s %s: %v", comboID, design, err)
			}
			sys, err := system.New(run, factory)
			if err != nil {
				t.Fatalf("%s %s: %v", comboID, design, err)
			}
			r := sys.Run()
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			name := comboID + " " + design
			got := fmt.Sprintf("%x", sum[:8])
			steps := sys.Engine().Steps()
			t.Logf("%s %s %d events", name, got, steps)
			if want := golden[name]; runtime.GOARCH == "amd64" && got != want {
				t.Errorf("%s: fingerprint %s, golden %s under model version %q; a model change bumps system.ModelVersion",
					name, got, want, system.ModelVersion)
			}
			if ceil := eventCeilings[name]; runtime.GOARCH == "amd64" && steps > ceil {
				t.Errorf("%s: %d engine events, ceiling %d", name, steps, ceil)
			}
		}
	}
}

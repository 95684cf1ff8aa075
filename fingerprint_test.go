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

	"github.com/hydrogen-sim/hydrogen/internal/memory/hybrid"
	"github.com/hydrogen-sim/hydrogen/internal/system"
	"github.com/hydrogen-sim/hydrogen/internal/workloads"
)

// goldenFingerprints holds, per system.ModelVersion, the first 8 bytes
// of each run's hash, keyed by fingerprintCase name.
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

		"C1 HAShCache":     "0c1b103828b3493d",
		"C1 HAShCache-dm":  "ccaf603555b99cba",
		"C1 Baseline-flat": "d9279b05659a9156",
		"C1 Hydrogen-flat": "c9231fadbf149fb2",
		"C5 HAShCache":     "0b61092811b59004",
		"C5 HAShCache-dm":  "5d962dcf65e51ddf",
		"C5 Baseline-flat": "7081d2df4e34b5e2",
		"C5 Hydrogen-flat": "0e10bb48bc79657d",
	},
}

// eventCeilings bounds each golden run's engine event count. Counts
// repeat exactly, so they guard the simulator's cost per run without
// timing noise: a change that cuts events lowers a ceiling to the new
// count, and one that adds events must raise it here, in the open.
var eventCeilings = map[string]uint64{
	"C1 Baseline": 1145777,
	"C1 WayPart":  1005749,
	"C1 Hydrogen": 1160350,
	"C1 Profess":  1121773,
	"C5 Baseline": 402767,
	"C5 WayPart":  399622,
	"C5 Hydrogen": 383191,
	"C5 Profess":  394442,

	"C1 HAShCache":     1162838,
	"C1 HAShCache-dm":  1172753,
	"C1 Baseline-flat": 1153637,
	"C1 Hydrogen-flat": 1148964,
	"C5 HAShCache":     414160,
	"C5 HAShCache-dm":  396798,
	"C5 Baseline-flat": 394074,
	"C5 Hydrogen-flat": 354446,
}

// fingerprintCase is one golden run: a design on a combo, with an
// optional structural tweak on top of the design's own.
type fingerprintCase struct {
	name, combo, design string
	tweak               func(*system.Config)
}

// fingerprintCases lists the golden runs. Beyond the four designs in
// cache mode, HAShCache pins the tag-latency probe (its default 4-way
// organization) and the chained probe (direct-mapped), and the -flat
// runs pin flat mode's swap-on-migrate path.
func fingerprintCases() []fingerprintCase {
	flat := func(c *system.Config) { c.Hybrid.Mode = hybrid.ModeFlat }
	direct := func(c *system.Config) { c.Hybrid.Assoc = 1 }
	var out []fingerprintCase
	for _, combo := range []string{"C1", "C5"} {
		for _, design := range []string{
			system.DesignBaseline, system.DesignWayPart,
			system.DesignHydrogen, system.DesignProfess,
		} {
			out = append(out, fingerprintCase{combo + " " + design, combo, design, nil})
		}
	}
	for _, combo := range []string{"C1", "C5"} {
		out = append(out,
			fingerprintCase{combo + " HAShCache", combo, system.DesignHAShCache, nil},
			fingerprintCase{combo + " HAShCache-dm", combo, system.DesignHAShCache, direct},
			fingerprintCase{combo + " Baseline-flat", combo, system.DesignBaseline, flat},
			fingerprintCase{combo + " Hydrogen-flat", combo, system.DesignHydrogen, flat},
		)
	}
	return out
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
	for _, tc := range fingerprintCases() {
		combo, err := workloads.ComboByID(tc.combo)
		if err != nil {
			t.Fatal(err)
		}
		run := cfg
		run.CPUProfiles = combo.CPUAssignment(run.Cores)
		run.GPUProfile = combo.GPU
		if tc.tweak != nil {
			tc.tweak(&run)
		}
		factory, err := system.ApplyDesign(&run, tc.design)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sys, err := system.New(run, factory)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		r := sys.Run()
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		got := fmt.Sprintf("%x", sum[:8])
		steps := sys.Engine().Steps()
		t.Logf("%s %s %d events", tc.name, got, steps)
		if want := golden[tc.name]; runtime.GOARCH == "amd64" && got != want {
			t.Errorf("%s: fingerprint %s, golden %s under model version %q; a model change bumps system.ModelVersion",
				tc.name, got, want, system.ModelVersion)
		}
		if ceil := eventCeilings[tc.name]; runtime.GOARCH == "amd64" && steps > ceil {
			t.Errorf("%s: %d engine events, ceiling %d", tc.name, steps, ceil)
		}
	}
}

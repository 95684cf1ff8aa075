package system

import (
	"encoding/json"
	"testing"

	"github.com/hydrogen-sim/hydrogen/internal/workloads"
)

// tiny returns a fast-running config for tests: 8 MB fast tier, 1 M cycles.
func tiny() Config {
	cfg := Quick()
	cfg.Hybrid.FastCapacityBytes = 8 << 20
	cfg.Hybrid.RemapCacheBytes = 16 << 10
	cfg.LLC.SizeBytes = 1 << 20
	cfg.EpochLen = 100_000
	cfg.Cycles = 1_000_000
	return cfg
}

func run(t *testing.T, cfg Config, design, combo string) Results {
	t.Helper()
	c, err := workloads.ComboByID(combo)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunDesign(cfg, design, c)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestBaselineRuns(t *testing.T) {
	r := run(t, tiny(), DesignBaseline, "C1")
	if r.CPUIPC <= 0 || r.GPUIPC <= 0 {
		t.Fatalf("IPC cpu=%.3f gpu=%.3f; system did not make progress", r.CPUIPC, r.GPUIPC)
	}
	if r.Hybrid.Demand[0] == 0 || r.Hybrid.Demand[1] == 0 {
		t.Fatalf("no memory demand: %+v", r.Hybrid)
	}
	if len(r.Epochs) < 8 {
		t.Fatalf("%d epochs sampled, want >= 8", len(r.Epochs))
	}
	if r.TotalEnergyPJ() <= 0 {
		t.Fatal("no energy accounted")
	}
}

func TestDeterminism(t *testing.T) {
	a := run(t, tiny(), DesignHydrogen, "C3")
	b := run(t, tiny(), DesignHydrogen, "C3")
	if a.CPUInstrs != b.CPUInstrs || a.GPUInstrs != b.GPUInstrs {
		t.Fatalf("runs differ: (%d,%d) vs (%d,%d)",
			a.CPUInstrs, a.GPUInstrs, b.CPUInstrs, b.GPUInstrs)
	}
	if a.Hybrid != b.Hybrid {
		t.Fatalf("controller stats differ:\n%+v\n%+v", a.Hybrid, b.Hybrid)
	}
}

// Figure 2(a)'s premise: running CPU and GPU together slows both down
// relative to running each alone.
func TestCoRunContention(t *testing.T) {
	cfg := tiny()
	combo, _ := workloads.ComboByID("C1")

	together := run(t, cfg, DesignBaseline, "C1")

	cpuAlone := cfg
	cpuAlone.CPUProfiles = combo.CPUAssignment(cfg.Cores)
	cpuAlone.GPUProfile = ""
	factory, _ := ApplyDesign(&cpuAlone, DesignBaseline)
	sysA, err := New(cpuAlone, factory)
	if err != nil {
		t.Fatal(err)
	}
	alone := sysA.Run()

	// At this tiny scale the run is mostly warmup, so only the direction
	// is asserted here; TestCalibrationShapeC1 checks the magnitude at
	// the quick scale.
	if together.CPUIPC > alone.CPUIPC*1.01 {
		t.Fatalf("CPU IPC together %.3f above alone %.3f; co-running helped the CPU",
			together.CPUIPC, alone.CPUIPC)
	}
}

func TestAllDesignsRun(t *testing.T) {
	cfg := tiny()
	cfg.Cycles = 500_000
	for _, d := range Designs() {
		r := run(t, cfg, d, "C5")
		if r.CPUIPC <= 0 || r.GPUIPC <= 0 {
			t.Fatalf("design %s made no progress: cpu=%.3f gpu=%.3f", d, r.CPUIPC, r.GPUIPC)
		}
	}
}

func TestHAShCacheStructuralTweaks(t *testing.T) {
	cfg := tiny()
	cfg.Hybrid.Assoc = 1
	if _, err := ApplyDesign(&cfg, DesignHAShCache); err != nil {
		t.Fatal(err)
	}
	if !cfg.Hybrid.Chaining || !cfg.Fast.CPUPriority || !cfg.Slow.CPUPriority {
		t.Fatalf("direct-mapped HAShCache config not applied: %+v", cfg.Hybrid)
	}
	cfg2 := tiny()
	cfg2.Hybrid.Assoc = 4
	if _, err := ApplyDesign(&cfg2, DesignHAShCache); err != nil {
		t.Fatal(err)
	}
	if cfg2.Hybrid.Chaining || cfg2.Hybrid.ExtraTagLat == 0 {
		t.Fatal("assoc-4 HAShCache should disable chaining and pay tag latency")
	}
}

func TestUnknownDesignAndCombo(t *testing.T) {
	cfg := tiny()
	if _, err := ApplyDesign(&cfg, "nope"); err == nil {
		t.Fatal("unknown design accepted")
	}
	if _, err := workloads.ComboByID("C99"); err == nil {
		t.Fatal("unknown combo accepted")
	}
}

func TestConfigMismatchRejected(t *testing.T) {
	cfg := tiny()
	cfg.CPUProfiles = []string{"gcc"} // 8 cores but 1 profile
	factory, err := ApplyDesign(&cfg, DesignBaseline)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(cfg, factory); err == nil {
		t.Fatal("core/profile count mismatch accepted")
	}
}

func TestProfileScaleDecoupledFromCapacity(t *testing.T) {
	// The Fig. 2(c) knob: shrinking the fast tier must not shrink the
	// workloads when ProfileScaleBytes pins the original scale.
	cfg := tiny()
	cfg.ProfileScaleBytes = cfg.Hybrid.FastCapacityBytes
	cfg.Hybrid.FastCapacityBytes /= 4
	combo, _ := workloads.ComboByID("C1")
	big, err := RunDesign(cfg, DesignBaseline, combo)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := tiny()
	cfg2.Hybrid.FastCapacityBytes /= 4 // workloads shrink with the tier
	small, err := RunDesign(cfg2, DesignBaseline, combo)
	if err != nil {
		t.Fatal(err)
	}
	// Fixed-size workloads on a quarter tier must do no better than
	// workloads that shrank along with it.
	if big.CPUIPC > small.CPUIPC*1.05 {
		t.Fatalf("pinned-profile run (%.3f IPC) outperformed shrunk-profile run (%.3f); decoupling broken",
			big.CPUIPC, small.CPUIPC)
	}
}

// TestCacheKeyKnobs pins the serve-layer contract: SimParallel is
// ignored, so it must not change the canonical (cache-key) JSON.
func TestCacheKeyKnobs(t *testing.T) {
	base, err := json.Marshal(Canonical(tiny()))
	if err != nil {
		t.Fatal(err)
	}

	withPar := tiny()
	withPar.SimParallel = 4
	b, err := json.Marshal(Canonical(withPar))
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(base) {
		t.Fatal("SimParallel leaked into the canonical JSON; it would split the result cache")
	}
}

// TestNewRejectsInvalidShapes: a processor or cache shape the machine
// cannot be built with is an error from New — not a panic in a cache
// constructor or the issue loop, and not a run without its GPU. The
// processor checks apply only to processors the run has.
func TestNewRejectsInvalidShapes(t *testing.T) {
	c1, err := workloads.ComboByID("C1")
	if err != nil {
		t.Fatal(err)
	}
	build := func(mutate func(*Config)) error {
		cfg := tiny()
		cfg.CPUProfiles = c1.CPUAssignment(cfg.Cores)
		cfg.GPUProfile = c1.GPU
		mutate(&cfg)
		factory, err := DesignSpec{Policy: DesignBaseline}.Apply(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, err = New(cfg, factory)
		return err
	}
	for name, mutate := range map[string]func(*Config){
		"CPU base IPC 0":    func(c *Config) { c.CPU.BaseIPC = 0 },
		"GPU issue width 0": func(c *Config) { c.GPU.IssuePerCyc = 0 },
		"CPU L2 assoc 0":    func(c *Config) { c.CPU.L2.Assoc = 0 },
		"GPU L1 assoc 300":  func(c *Config) { c.GPU.L1.Assoc = 300 },
		"LLC 1000 bytes":    func(c *Config) { c.LLC.SizeBytes = 1000 },
		"GPU subslices 0":   func(c *Config) { c.GPU.Subslices = 0 },
		"negative cores":    func(c *Config) { c.Cores = -1 },
		"no CPU profiles":   func(c *Config) { c.CPUProfiles = nil },
	} {
		if err := build(mutate); err == nil {
			t.Errorf("%s: New returned no error", name)
		}
	}
	for name, mutate := range map[string]func(*Config){
		"stock":                  func(*Config) {},
		"GPU-alone, CPU IPC 0":   func(c *Config) { c.Cores, c.CPUProfiles, c.CPU.BaseIPC = 0, nil, 0 },
		"CPU-alone, 0 subslices": func(c *Config) { c.GPUProfile, c.GPU.Subslices = "", 0 },
	} {
		if err := build(mutate); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

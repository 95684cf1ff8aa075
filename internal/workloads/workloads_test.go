package workloads

import (
	"testing"

	"github.com/hydrogen-sim/hydrogen/internal/trace"
)

const fastCap = 16 << 20

func TestAllCPUProfilesResolve(t *testing.T) {
	for _, name := range CPUNames() {
		p, err := CPUProfile(name, fastCap)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Footprint == 0 || p.Hot == 0 || p.Hot > p.Footprint {
			t.Errorf("%s: bad sizes footprint=%d hot=%d", name, p.Footprint, p.Hot)
		}
		if sum := p.HotFrac + p.StreamFrac + p.ChaseFrac; sum > 1.0001 {
			t.Errorf("%s: access-class fractions sum to %.2f", name, sum)
		}
		if p.MeanGap == 0 {
			t.Errorf("%s: zero gap", name)
		}
		// The generator must actually build.
		g := trace.NewCPU(p, 0, 1)
		if ops := trace.Slice(g, 10); len(ops) != 10 {
			t.Errorf("%s: generator yielded %d ops", name, len(ops))
		}
	}
}

func TestAllGPUProfilesResolve(t *testing.T) {
	for _, name := range GPUNames() {
		p, err := GPUProfile(name, fastCap)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Region == 0 {
			t.Errorf("%s: zero region", name)
		}
		g := trace.NewGPU(p, 0, 1)
		if ops := trace.Slice(g, 10); len(ops) != 10 {
			t.Errorf("%s: generator yielded %d ops", name, len(ops))
		}
	}
}

func TestUnknownProfiles(t *testing.T) {
	if _, err := CPUProfile("nope", fastCap); err == nil {
		t.Error("unknown CPU profile resolved")
	}
	if _, err := GPUProfile("nope", fastCap); err == nil {
		t.Error("unknown GPU profile resolved")
	}
}

func TestCombosMatchTable2(t *testing.T) {
	if len(Combos) != 12 {
		t.Fatalf("%d combos, Table II has 12", len(Combos))
	}
	// Spot-check the table contents against the paper.
	c1, _ := ComboByID("C1")
	want := []string{"gcc", "mcf", "lbm", "roms"}
	for i, w := range want {
		if c1.CPU[i] != w {
			t.Fatalf("C1 CPU workloads %v, want %v", c1.CPU, want)
		}
	}
	if c1.GPU != "backprop" {
		t.Fatalf("C1 GPU %s, want backprop", c1.GPU)
	}
	c5, _ := ComboByID("C5")
	if c5.GPU != "streamcluster" {
		t.Fatalf("C5 GPU %s, want streamcluster", c5.GPU)
	}
	c12, _ := ComboByID("C12")
	if c12.GPU != "bert" {
		t.Fatalf("C12 GPU %s, want bert", c12.GPU)
	}
}

func TestEveryComboProfileExists(t *testing.T) {
	for _, c := range Combos {
		for _, name := range c.CPU {
			if _, err := CPUProfile(name, fastCap); err != nil {
				t.Errorf("%s references unknown CPU workload %s", c.ID, name)
			}
		}
		if _, err := GPUProfile(c.GPU, fastCap); err != nil {
			t.Errorf("%s references unknown GPU workload %s", c.ID, c.GPU)
		}
	}
}

func TestCPUAssignmentRateMode(t *testing.T) {
	c, _ := ComboByID("C1")
	got := c.CPUAssignment(8)
	// Rate mode: two copies of each of the four workloads.
	counts := map[string]int{}
	for _, w := range got {
		counts[w]++
	}
	for _, w := range c.CPU {
		if counts[w] != 2 {
			t.Fatalf("workload %s assigned %d times on 8 cores, want 2", w, counts[w])
		}
	}
	if n := len(c.CPUAssignment(4)); n != 4 {
		t.Fatalf("4-core assignment has %d entries", n)
	}
	// Nothing to assign: nil, for system.New to reject, never a panic.
	if got := (Combo{GPU: "bert"}).CPUAssignment(8); got != nil {
		t.Fatalf("combo without CPU workloads assigned %v", got)
	}
	if got := c.CPUAssignment(-1); got != nil {
		t.Fatalf("-1 cores assigned %v", got)
	}
}

func TestProfilesScaleWithCapacity(t *testing.T) {
	small, _ := CPUProfile("mcf", 16<<20)
	big, _ := CPUProfile("mcf", 512<<20)
	ratio := float64(big.Footprint) / float64(small.Footprint)
	if ratio < 30 || ratio > 34 {
		t.Fatalf("mcf footprint scaled by %.1f for 32x capacity", ratio)
	}
}

func TestStreamclusterIsTheMigrationWorstCase(t *testing.T) {
	sc, _ := GPUProfile("streamcluster", fastCap)
	if sc.StrideLines < 4 {
		t.Fatalf("streamcluster stride %d lines; must skip lines to waste migrations", sc.StrideLines)
	}
	if sc.Region < 2*fastCap {
		t.Fatalf("streamcluster region %d; must far exceed the fast tier", sc.Region)
	}
}

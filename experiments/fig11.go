package experiments

import (
	"fmt"

	"github.com/hydrogen-sim/hydrogen/internal/system"
)

// Fig11Config is one (associativity, block size) organization.
type Fig11Config struct {
	Assoc      int
	BlockBytes uint64
}

func (c Fig11Config) String() string { return fmt.Sprintf("A%d-B%d", c.Assoc, c.BlockBytes) }

// DefaultFig11Configs is the organization sweep shown in the paper's
// Fig. 11 (a subset of the full A{1..16} x B{64..2048} space).
func DefaultFig11Configs() []Fig11Config {
	return []Fig11Config{
		{1, 64}, {1, 256}, {2, 256}, {4, 256}, {8, 256}, {16, 256}, {4, 64}, {4, 1024}, {4, 2048},
	}
}

// Fig11Row is one organization's design comparison.
type Fig11Row struct {
	Config    Fig11Config
	HAShCache float64
	Profess   float64
	Hydrogen  float64
}

// Fig11 reproduces "Fig. 11: impact of different associativities (A) and
// block sizes (B)", with each design normalized to the unpartitioned
// baseline *of the same organization*. The paper's key crossover: at
// A1-B64 HAShCache's chaining wins; everywhere else Hydrogen leads, and
// at large blocks its migration throttling matters most.
func Fig11(o Options, configs []Fig11Config) ([]Fig11Row, error) {
	o.memoize()
	if len(configs) == 0 {
		configs = DefaultFig11Configs()
	}
	combos, err := o.combos()
	if err != nil {
		return nil, err
	}
	designs := []string{system.DesignHAShCache, system.DesignProfess, system.DesignHydrogen}
	gm, err := o.geomeanSpeedups(len(configs)*len(designs), combos, func(i int) (system.Config, system.DesignSpec, string) {
		fc, d := configs[i/len(designs)], designs[i%len(designs)]
		cfg := o.Base
		cfg.Hybrid.Assoc = fc.Assoc
		cfg.Hybrid.BlockBytes = fc.BlockBytes
		// Keep capacity a multiple of the set size.
		setBytes := fc.BlockBytes * uint64(fc.Assoc)
		cfg.Hybrid.FastCapacityBytes = cfg.Hybrid.FastCapacityBytes / setBytes * setBytes
		return cfg, named(d), fmt.Sprintf("fig11 %s %s", fc, d)
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Fig11Row, len(configs))
	for i, fc := range configs {
		rows[i] = Fig11Row{Config: fc, HAShCache: gm[3*i], Profess: gm[3*i+1], Hydrogen: gm[3*i+2]}
	}
	return rows, nil
}

// Fig11Table renders the organization sweep.
func Fig11Table(rows []Fig11Row) *Table {
	t := &Table{Title: "Fig. 11: associativity and block size impact (speedup vs same-config baseline)",
		Columns: []string{"config", "HAShCache", "Profess", "Hydrogen"}}
	for _, r := range rows {
		t.Add(r.Config.String(), fmt.Sprintf("%.3f", r.HAShCache),
			fmt.Sprintf("%.3f", r.Profess), fmt.Sprintf("%.3f", r.Hydrogen))
	}
	return t
}

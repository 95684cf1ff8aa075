package system

import (
	"context"
	"encoding/json"
	"fmt"

	"github.com/hydrogen-sim/hydrogen/internal/core"
	"github.com/hydrogen-sim/hydrogen/internal/memory/hybrid"
	"github.com/hydrogen-sim/hydrogen/internal/obs"
	"github.com/hydrogen-sim/hydrogen/internal/policy"
	"github.com/hydrogen-sim/hydrogen/internal/workloads"
)

// This file maps the design names used throughout the evaluation
// (Fig. 5) onto policy factories plus the structural config tweaks some
// designs need (HAShCache's direct-mapped organization and CPU
// prioritization in the channel schedulers).

// Design names.
const (
	DesignBaseline        = "Baseline"
	DesignHAShCache       = "HAShCache"
	DesignProfess         = "Profess"
	DesignWayPart         = "WayPart"
	DesignHydrogenDP      = "Hydrogen-DP"
	DesignHydrogenDPToken = "Hydrogen-DP+Token"
	DesignHydrogen        = "Hydrogen"
)

// Designs lists the Fig. 5 designs in presentation order.
func Designs() []string {
	return []string{
		DesignBaseline, DesignHAShCache, DesignProfess, DesignWayPart,
		DesignHydrogenDP, DesignHydrogenDPToken, DesignHydrogen,
	}
}

// HydrogenOptions selects which Hydrogen mechanisms are active; the
// breakdown variants of Fig. 5 and the overhead studies of Figs. 7–9
// all reduce to combinations of these. The JSON form is the "hydrogen"
// field of a job request.
type HydrogenOptions struct {
	Tokens bool `json:"tokens,omitempty"`
	Climb  bool `json:"climb,omitempty"`
	// TokIdx fixes the token level when Climb is off; the DP+Token
	// variant of Fig. 5 uses the 15% level (index 3).
	TokIdx int `json:"tok_idx,omitempty"`
	// Swap is the Fig. 7(a) swap method: 0 on, 1 ideal, 2 prob, 3 off.
	Swap core.SwapMode `json:"swap,omitempty"`
	// IdealReconfig models the zero-cost reconfiguration of Fig. 7(b).
	IdealReconfig bool `json:"ideal_reconfig,omitempty"`
	// FixedPoint pins (cap, bw, tok) for the exhaustive search of
	// Fig. 8; nil uses the default 3:1 capacity / 1:3 bandwidth point.
	FixedPoint *[3]int `json:"fixed_point,omitempty"`
	// PhaseEpochs is the phase length in epochs (paper: 500M cycles /
	// 10M-cycle epochs = 50). Zero selects 50.
	PhaseEpochs uint64 `json:"phase_epochs,omitempty"`
}

// coreConfig is the Hydrogen policy configuration o selects on env. It
// reads only the canonical options, so specs that canonicalize alike
// build alike.
func (o HydrogenOptions) coreConfig(env PolicyEnv) core.Config {
	o = HydrogenSpec(o).Hydrogen
	cfg := core.Config{
		Groups:            env.Groups,
		Assoc:             env.Assoc,
		CPUWays:           max(1, env.Assoc*3/4),
		CPUGroups:         1,
		EnableTokens:      o.Tokens,
		TokIdx:            o.TokIdx,
		TokenPeriod:       max(env.EpochLen/10, 1),
		SlowBytesPerCycle: env.SlowBytesPerCycle,
		BlockBytes:        env.BlockBytes,
		EnableClimb:       o.Climb,
		PhaseLen:          o.PhaseEpochs * env.EpochLen,
		Swap:              o.Swap,
		LazyReconfig:      !o.IdealReconfig,
		Seed:              env.Seed,
	}
	if fp := o.FixedPoint; fp != nil {
		cfg.CPUWays, cfg.CPUGroups = fp[0], fp[1] // the canonical TokIdx is fp[2]
	}
	return cfg
}

// HydrogenFactory builds a configurable Hydrogen policy factory.
func HydrogenFactory(o HydrogenOptions) PolicyFactory {
	return func(env PolicyEnv) (hybrid.Policy, error) {
		h, err := core.New(o.coreConfig(env))
		if err != nil {
			return nil, err
		}
		h.SetNumSets(env.NumSets)
		return h, nil
	}
}

// DesignSpec is a design as data: a policy name (Baseline, HAShCache,
// Profess, WayPart or Hydrogen) plus, for the Hydrogen policy, which of
// its mechanisms are active. The names of Designs() are aliases for
// canonical specs; two canonical specs are equal exactly when they
// build the same policy, so a spec is what a content address hashes.
type DesignSpec struct {
	Policy   string          `json:"policy"`
	Hydrogen HydrogenOptions `json:"hydrogen"`
}

// aliases maps each name of Designs() to its canonical spec.
var aliases = map[string]DesignSpec{
	DesignBaseline:        {Policy: DesignBaseline},
	DesignHAShCache:       {Policy: DesignHAShCache},
	DesignProfess:         {Policy: DesignProfess},
	DesignWayPart:         {Policy: DesignWayPart},
	DesignHydrogenDP:      HydrogenSpec(HydrogenOptions{}),
	DesignHydrogenDPToken: HydrogenSpec(HydrogenOptions{Tokens: true, TokIdx: 3}),
	DesignHydrogen:        HydrogenSpec(HydrogenOptions{Tokens: true, TokIdx: 3, Climb: true}),
}

// HydrogenSpec is the canonical spec of the Hydrogen policy under o.
// It spells out only what the factory would fill in identically: the
// default phase length, and the token level a fixed point overrides.
func HydrogenSpec(o HydrogenOptions) DesignSpec {
	if o.PhaseEpochs == 0 {
		o.PhaseEpochs = 50
	}
	if o.FixedPoint != nil {
		o.TokIdx = o.FixedPoint[2]
	}
	return DesignSpec{Policy: DesignHydrogen, Hydrogen: o}
}

// ParseDesign resolves a design as a job names it: with nil options, an
// alias from Designs(); with options, the Hydrogen policy under them.
// An unknown name parses to a spec of that policy, which Apply rejects.
func ParseDesign(name string, h *HydrogenOptions) (DesignSpec, error) {
	if h != nil {
		if name != DesignHydrogen {
			return DesignSpec{}, fmt.Errorf("system: hydrogen options need design %q, not %q", DesignHydrogen, name)
		}
		return HydrogenSpec(*h), nil
	}
	if d, ok := aliases[name]; ok {
		return d, nil
	}
	return DesignSpec{Policy: name}, fmt.Errorf("system: unknown design %q", name)
}

// Name returns the alias that expands to d, or "" when none does.
func (d DesignSpec) Name() string {
	for name, a := range aliases {
		if a == d { // a nil FixedPoint on both sides; a pinned d never matches
			return name
		}
	}
	return ""
}

// Options returns a Hydrogen spec's options, nil for other policies:
// with Policy, the spelled-out form ParseDesign reads back.
func (d DesignSpec) Options() *HydrogenOptions {
	if d.Policy != DesignHydrogen {
		return nil
	}
	o := d.Hydrogen
	return &o
}

// String names d by its alias, or by its policy and options.
func (d DesignSpec) String() string {
	if name := d.Name(); name != "" {
		return name
	}
	b, _ := json.Marshal(d.Hydrogen)
	return d.Policy + string(b)
}

// ApplyDesign returns the policy factory for a named design and applies
// any structural config changes it needs; see DesignSpec.Apply.
func ApplyDesign(cfg *Config, design string) (PolicyFactory, error) {
	d, _ := ParseDesign(design, nil)
	return d.Apply(cfg)
}

// Apply validates d against cfg's geometry, returns its policy factory
// and applies any structural config changes it needs. The config's
// associativity is respected (for the Fig. 11 sweeps); HAShCache gets
// chaining only in its native direct-mapped organization and a
// tag-latency penalty otherwise, as described in Section VI-C.
func (d DesignSpec) Apply(cfg *Config) (PolicyFactory, error) {
	switch d.Policy {
	case DesignBaseline:
		return func(env PolicyEnv) (hybrid.Policy, error) {
			return policy.NewBaseline(env.Groups, env.Assoc), nil
		}, nil

	case DesignWayPart:
		return func(env PolicyEnv) (hybrid.Policy, error) {
			return policy.NewWayPart(env.Groups, env.Assoc), nil
		}, nil

	case DesignProfess:
		return func(env PolicyEnv) (hybrid.Policy, error) {
			return policy.NewProfess(env.Groups, env.Assoc, env.Seed), nil
		}, nil

	case DesignHAShCache:
		assoc := cfg.Hybrid.Assoc
		if assoc == 0 {
			assoc = 4
		}
		if assoc == 1 {
			cfg.Hybrid.Chaining = true
		} else {
			cfg.Hybrid.ExtraTagLat = 4
		}
		cfg.Fast.CPUPriority = true
		cfg.Slow.CPUPriority = true
		return func(env PolicyEnv) (hybrid.Policy, error) {
			return policy.NewHAShCache(env.Groups, env.Assoc, env.Seed), nil
		}, nil

	case DesignHydrogen:
		o := d.Hydrogen
		if o.Swap > core.SwapOff {
			return nil, fmt.Errorf("system: unknown swap mode %d", o.Swap)
		}
		if fp := o.FixedPoint; fp != nil && (fp[0] < 1 || fp[1] > fp[0]) {
			return nil, fmt.Errorf("system: fixed point %v needs 1 <= cap and bw <= cap", *fp)
		}
		cc := o.coreConfig(cfg.Env())
		if err := cc.Validate(); err != nil {
			return nil, err
		}
		return HydrogenFactory(o), nil
	}
	return nil, fmt.Errorf("system: unknown design %q", d.Policy)
}

// RunDesign builds and runs one simulation of a named design on the
// given workload combo.
func RunDesign(cfg Config, design string, combo workloads.Combo) (Results, error) {
	d, _ := ParseDesign(design, nil)
	return RunDesignObserved(context.Background(), cfg, d, combo, nil)
}

// RunDesignObserved runs one design spec on combo with cooperative
// cancellation and an optional observer, which receives every epoch's
// telemetry point on the simulation goroutine without perturbing
// results — the one entry point that every figure run and every served
// job goes through.
func RunDesignObserved(ctx context.Context, cfg Config, design DesignSpec, combo workloads.Combo, observe func(obs.EpochPoint)) (Results, error) {
	cfg.CPUProfiles = combo.CPUAssignment(cfg.Cores)
	cfg.GPUProfile = combo.GPU
	factory, err := design.Apply(&cfg)
	if err != nil {
		return Results{}, err
	}
	sys, err := New(cfg, factory)
	if err != nil {
		return Results{}, err
	}
	sys.SetObserver(observe)
	return sys.RunContext(ctx)
}

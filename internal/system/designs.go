package system

import (
	"context"
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
// breakdown variants of Fig. 5 and the overhead studies of Figs. 7–8
// all reduce to combinations of these.
type HydrogenOptions struct {
	Tokens bool
	Climb  bool
	// TokIdx fixes the token level when Climb is off; the DP+Token
	// variant of Fig. 5 uses the 15% level (index 3).
	TokIdx int
	Swap   core.SwapMode
	// IdealReconfig models the zero-cost reconfiguration of Fig. 7(b).
	IdealReconfig bool
	// FixedPoint pins (cap, bw, tok) for the exhaustive search of
	// Fig. 8; nil uses the default 3:1 capacity / 1:3 bandwidth point.
	FixedPoint *[3]int
	// PhaseEpochs is the phase length in epochs (paper: 500M cycles /
	// 10M-cycle epochs = 50). Zero selects 50.
	PhaseEpochs uint64
}

// HydrogenFactory builds a configurable Hydrogen policy factory.
func HydrogenFactory(o HydrogenOptions) PolicyFactory {
	return func(env PolicyEnv) (hybrid.Policy, error) {
		phaseEpochs := o.PhaseEpochs
		if phaseEpochs == 0 {
			phaseEpochs = 50
		}
		cfg := core.Config{
			Groups:            env.Groups,
			Assoc:             env.Assoc,
			CPUWays:           maxInt(1, env.Assoc*3/4),
			CPUGroups:         1,
			EnableTokens:      o.Tokens,
			TokIdx:            o.TokIdx,
			TokenPeriod:       maxU64(env.EpochLen/10, 1),
			SlowBytesPerCycle: env.SlowBytesPerCycle,
			BlockBytes:        env.BlockBytes,
			EnableClimb:       o.Climb,
			PhaseLen:          phaseEpochs * env.EpochLen,
			Swap:              o.Swap,
			LazyReconfig:      !o.IdealReconfig,
			Seed:              env.Seed,
		}
		if o.FixedPoint != nil {
			cfg.CPUWays = (*o.FixedPoint)[0]
			cfg.CPUGroups = (*o.FixedPoint)[1]
			cfg.TokIdx = (*o.FixedPoint)[2]
		}
		h, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		h.SetNumSets(env.NumSets)
		return h, nil
	}
}

// ApplyDesign returns the policy factory for a named design and applies
// any structural config changes it needs. The config's associativity is
// respected (for the Fig. 11 sweeps); HAShCache gets chaining only in
// its native direct-mapped organization and a tag-latency penalty
// otherwise, as described in Section VI-C.
func ApplyDesign(cfg *Config, design string) (PolicyFactory, error) {
	switch design {
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

	case DesignHydrogenDP:
		return HydrogenFactory(HydrogenOptions{}), nil

	case DesignHydrogenDPToken:
		return HydrogenFactory(HydrogenOptions{Tokens: true, TokIdx: 3}), nil

	case DesignHydrogen:
		return HydrogenFactory(HydrogenOptions{Tokens: true, TokIdx: 3, Climb: true}), nil
	}
	return nil, fmt.Errorf("system: unknown design %q", design)
}

// RunDesign builds and runs one simulation of a design on the given
// workload combo.
func RunDesign(cfg Config, design string, combo workloads.Combo) (Results, error) {
	return RunDesignContext(context.Background(), cfg, design, combo, nil)
}

// RunDesignContext is RunDesign with cooperative cancellation and an
// optional per-epoch progress callback (nil for none) — the hooks the
// serving layer threads down to count live progress and abandon
// canceled jobs. Neither hook perturbs the simulation.
func RunDesignContext(ctx context.Context, cfg Config, design string, combo workloads.Combo, onEpoch func(EpochSample)) (Results, error) {
	return RunDesignObserved(ctx, cfg, design, combo, Hooks{OnEpoch: onEpoch})
}

// Hooks bundles the observation callbacks a run can install. All
// fields are optional; every hook runs on the simulation goroutine
// between epochs and observes without perturbing results.
type Hooks struct {
	// OnEpoch receives every epoch's IPC sample (progress reporting).
	OnEpoch func(EpochSample)
	// OnTelemetry receives every epoch's full telemetry point: the
	// (cap, bw, tok) trajectory, token-faucet and migration activity,
	// and tier utilization (obs ring buffers, CSV artifacts).
	OnTelemetry func(obs.EpochPoint)
}

// RunDesignObserved is RunDesignContext with the full observation hook
// set — the entry point of the observability layer.
func RunDesignObserved(ctx context.Context, cfg Config, design string, combo workloads.Combo, hooks Hooks) (Results, error) {
	cfg.CPUProfiles = combo.CPUAssignment(cfg.Cores)
	cfg.GPUProfile = combo.GPU
	factory, err := ApplyDesign(&cfg, design)
	if err != nil {
		return Results{}, err
	}
	sys, err := New(cfg, factory)
	if err != nil {
		return Results{}, err
	}
	if hooks.OnEpoch != nil {
		sys.SetProgress(hooks.OnEpoch)
	}
	if hooks.OnTelemetry != nil {
		sys.SetTelemetry(hooks.OnTelemetry)
	}
	return sys.RunContext(ctx)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// Package system assembles the full simulated machine of Table I —
// trace-driven CPU cores and GPU subslices, private caches, the shared
// LLC, the hybrid memory controller with its partitioning policy, and
// the two DRAM tiers — and runs it for a configured number of cycles,
// sampling weighted IPC every epoch for the adaptive policies.
package system

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"github.com/hydrogen-sim/hydrogen/internal/caches"
	"github.com/hydrogen-sim/hydrogen/internal/core"
	"github.com/hydrogen-sim/hydrogen/internal/cpu"
	"github.com/hydrogen-sim/hydrogen/internal/memory/dram"
	"github.com/hydrogen-sim/hydrogen/internal/memory/hybrid"
	"github.com/hydrogen-sim/hydrogen/internal/obs"
	"github.com/hydrogen-sim/hydrogen/internal/sim"
	"github.com/hydrogen-sim/hydrogen/internal/trace"
	"github.com/hydrogen-sim/hydrogen/internal/workloads"
)

// ModelVersion names the simulated model. Content addresses fold it
// in, so a change that alters any run's Results (and re-derives the
// TestResultFingerprint goldens) bumps it, and results cached under
// the old model miss instead of being served as the new model's.
const ModelVersion = "1"

// PolicyEnv gives policy factories the derived system geometry they
// need (group count, associativity, set count, slow-tier bandwidth).
type PolicyEnv struct {
	Groups            int
	Assoc             int
	NumSets           uint64
	BlockBytes        uint64
	SlowBytesPerCycle uint64
	EpochLen          uint64
	Seed              int64
}

// PolicyFactory builds the partitioning policy for a system.
type PolicyFactory func(env PolicyEnv) (hybrid.Policy, error)

// Config describes one simulation.
type Config struct {
	Cores       int      // CPU cores (0 = GPU-alone run)
	CPUProfiles []string // per-core workload names; nil + Cores>0 is an error
	GPUProfile  string   // "" = CPU-alone run

	Fast dram.Config
	Slow dram.Config
	// Bandwidth scale knobs for the Fig. 2 sensitivity studies: the
	// per-channel BytesPerCycle is multiplied by these (0 = 1.0).
	FastBWScale float64
	SlowBWScale float64

	Hybrid hybrid.Config
	LLC    caches.Config // LLC.Latency is not charged: a CPU core charges CPU.LLCLat
	CPU    cpu.Config
	GPU    cpu.GPUConfig

	// Weights for the weighted-IPC objective, CPU:GPU. Zero selects the
	// paper default 12:1 (the core-count ratio).
	WeightCPU, WeightGPU float64

	EpochLen uint64 // sampling epoch (Section IV-C)
	Cycles   uint64 // total simulated cycles
	Seed     int64

	// ProfileScaleBytes is the capacity workload profiles scale against;
	// 0 selects Hybrid.FastCapacityBytes. The Fig. 2(c) capacity sweep
	// sets it to the unshrunk capacity so the workloads stay fixed while
	// the fast tier shrinks.
	ProfileScaleBytes uint64

	// SimParallel is ignored: every simulation runs on one serial
	// engine, and no non-test code reads it. It remains only because the
	// repository benchmark (bench/sim.go) still writes it; it goes when
	// that benchmark drops its par.* metrics. Excluded from the JSON
	// form, so it never reaches a content address.
	SimParallel int `json:"-"`
}

// Quick returns the scaled-down default configuration (DESIGN.md):
// Table I shapes with a 16 MB fast tier, proportionally scaled SRAM
// caches and workload footprints, and shorter epochs. Bandwidths and
// timings are NOT scaled, so contention behavior — the thing the paper
// studies — is preserved; epochs stay long relative to the time a
// reconfiguration needs to re-migrate a GPU working set, as in the
// paper's 10 M-cycle epochs.
func Quick() Config {
	cpuCfg := cpu.DefaultConfig()
	cpuCfg.L2.SizeBytes = 256 << 10 // scaled with the fast tier
	gpuCfg := cpu.DefaultGPUConfig()
	gpuCfg.L1.SizeBytes = 64 << 10
	return Config{
		Cores: 8,
		Fast:  dram.HBM2E(),
		Slow:  dram.DDR4(),
		Hybrid: hybrid.Config{
			FastCapacityBytes: 16 << 20,
			BlockBytes:        256,
			Assoc:             4,
			RemapCacheBytes:   32 << 10,
		},
		LLC: caches.Config{
			Name: "LLC", SizeBytes: 512 << 10, Assoc: 16, BlockBytes: 64, Latency: 38,
		},
		CPU:       cpuCfg,
		GPU:       gpuCfg,
		WeightCPU: 12, WeightGPU: 1,
		EpochLen: 400_000,
		Cycles:   10_000_000,
		Seed:     1,
	}
}

// Paper returns the full Table I configuration (512 MB fast tier,
// 16 MB LLC, 10 M-cycle epochs). Slower; used by `hydroexp --paper`.
func Paper() Config {
	cfg := Quick()
	cfg.Hybrid.FastCapacityBytes = 512 << 20
	cfg.Hybrid.RemapCacheBytes = 256 << 10
	cfg.LLC.SizeBytes = 16 << 20
	cfg.EpochLen = 10_000_000
	cfg.Cycles = 200_000_000
	return cfg
}

// Env derives the PolicyEnv a config implies.
func (c *Config) Env() PolicyEnv {
	h := c.Hybrid
	if h.BlockBytes == 0 {
		h.BlockBytes = 256
	}
	if h.Assoc == 0 {
		h.Assoc = 4
	}
	if h.GroupSize == 0 {
		h.GroupSize = 4
	}
	slowBPC := uint64(float64(c.Slow.BytesPerCycle) * scaleOr1(c.SlowBWScale) * float64(c.Slow.Channels))
	return PolicyEnv{
		Groups:            c.Fast.Channels / h.GroupSize,
		Assoc:             h.Assoc,
		NumSets:           h.FastCapacityBytes / (h.BlockBytes * uint64(h.Assoc)),
		BlockBytes:        h.BlockBytes,
		SlowBytesPerCycle: slowBPC,
		EpochLen:          c.EpochLen,
		Seed:              c.Seed,
	}
}

func scaleOr1(s float64) float64 {
	if s <= 0 {
		return 1
	}
	return s
}

// Canonical returns cfg with the runtime defaults New applies
// filled in explicitly (the 12:1 IPC weights and the 250k-cycle
// sampling epoch). Two configs with equal canonical forms simulate
// identically; the serve layer hashes this form to derive stable
// content addresses for its result cache.
func Canonical(cfg Config) Config {
	if cfg.WeightCPU == 0 && cfg.WeightGPU == 0 {
		cfg.WeightCPU, cfg.WeightGPU = 12, 1
	}
	if cfg.EpochLen == 0 {
		cfg.EpochLen = 250_000
	}
	return cfg
}

// ContentAddress is a run's identity, the daemon's job ID and the
// experiment run memo's key: the SHA-256 of the JSON of (model version,
// canonical config without its per-run workload assignment, design
// spec, combo), so configs that simulate identically share an address,
// as do an alias and its spelled-out spec. JSON emits struct fields in
// declaration order, so the encoding is deterministic.
func ContentAddress(model string, cfg Config, design DesignSpec, combo workloads.Combo) string {
	c := Canonical(cfg)
	c.CPUProfiles = nil
	c.GPUProfile = ""
	type comboKey struct {
		ID  string   `json:"id,omitempty"`
		CPU []string `json:"cpu,omitempty"`
		GPU string   `json:"gpu,omitempty"`
	}
	payload, err := json.Marshal(struct {
		Model  string     `json:"model"`
		Config Config     `json:"config"`
		Design DesignSpec `json:"design"`
		Combo  comboKey   `json:"combo"`
	}{model, c, design, comboKey(combo)})
	if err != nil {
		// Config contains only plain data; Marshal cannot fail.
		panic("system: marshal content address: " + err.Error())
	}
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

// EpochSample records one sampling epoch's measurements.
type EpochSample struct {
	EndCycle    uint64
	CPUIPC      float64
	GPUIPC      float64
	WeightedIPC float64
}

// Results aggregates a finished run.
type Results struct {
	PolicyName string
	Cycles     uint64

	CPUInstrs uint64
	GPUInstrs uint64
	CPUIPC    float64
	GPUIPC    float64

	Hybrid hybrid.Stats
	Fast   dram.Stats
	Slow   dram.Stats
	LLC    caches.Stats

	// Energy in picojoules, split as in Fig. 6.
	FastDynamicPJ, FastStaticPJ float64
	SlowDynamicPJ, SlowStaticPJ float64

	Epochs []EpochSample
}

// TotalEnergyPJ sums the four energy components.
func (r *Results) TotalEnergyPJ() float64 {
	return r.FastDynamicPJ + r.FastStaticPJ + r.SlowDynamicPJ + r.SlowStaticPJ
}

// WeightedIPC returns w_cpu*CPUIPC + w_gpu*GPUIPC.
func (r *Results) WeightedIPC(wCPU, wGPU float64) float64 {
	return wCPU*r.CPUIPC + wGPU*r.GPUIPC
}

// System is a fully wired machine.
type System struct {
	cfg Config
	eng *sim.Engine

	fast, slow *dram.Tier
	ctl        *hybrid.Controller
	llc        *caches.Cache
	cores      []*cpu.Core
	subslices  []*cpu.Core

	epochs     []EpochSample
	lastCPUIns uint64
	lastGPUIns uint64
	lastStats  hybrid.Stats // controller counters at the last epoch

	// ctx, when set, is polled at epoch boundaries to cancel the run.
	// observe, when set, receives one obs.EpochPoint per epoch: the
	// sample's IPCs plus the policy operating point, token-faucet and
	// migration activity, and tier utilization as deltas over the
	// epoch. Neither influences the simulated machine, so results stay
	// bit-identical whether or not they are installed.
	ctx          context.Context
	observe      func(obs.EpochPoint)
	lastPolicySt core.Stats
	lastFastBusy uint64
	lastSlowBusy uint64
}

// New builds a system with the policy produced by factory, creating
// synthetic trace generators from cfg's workload profile names.
func New(cfg Config, factory PolicyFactory) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = Canonical(cfg)

	eng := sim.New()
	fcfg, scfg := cfg.Fast, cfg.Slow
	fcfg.BytesPerCycle = uint64(float64(fcfg.BytesPerCycle) * scaleOr1(cfg.FastBWScale))
	scfg.BytesPerCycle = uint64(float64(scfg.BytesPerCycle) * scaleOr1(cfg.SlowBWScale))
	if fcfg.BytesPerCycle == 0 {
		fcfg.BytesPerCycle = 1
	}
	if scfg.BytesPerCycle == 0 {
		scfg.BytesPerCycle = 1
	}
	fast, err := dram.NewTier(eng, fcfg)
	if err != nil {
		return nil, err
	}
	slow, err := dram.NewTier(eng, scfg)
	if err != nil {
		return nil, err
	}

	pol, err := factory(cfg.Env())
	if err != nil {
		return nil, err
	}
	ctl, err := hybrid.New(eng, cfg.Hybrid, fast, slow, pol)
	if err != nil {
		return nil, err
	}

	llc := caches.New(cfg.LLC)
	s := &System{cfg: cfg, eng: eng, fast: fast, slow: slow, ctl: ctl, llc: llc}

	// Lay out disjoint address regions for every trace instance.
	var next uint64
	alloc := func(size uint64) uint64 {
		base := next
		next += (size + (1 << 20)) &^ ((1 << 20) - 1)
		return base
	}

	fastCap := cfg.ProfileScaleBytes
	if fastCap == 0 {
		fastCap = cfg.Hybrid.FastCapacityBytes
	}
	for i := 0; i < cfg.Cores; i++ {
		params, err := workloads.CPUProfile(cfg.CPUProfiles[i], fastCap)
		if err != nil {
			return nil, err
		}
		synth := trace.NewCPU(params, alloc(params.Footprint), cfg.Seed+int64(i)*7919)
		gen := trace.NewPaged(synth, cfg.Seed+int64(i)*15013+1)
		s.cores = append(s.cores, cpu.New(eng, cfg.CPU, gen, llc, ctl))
	}

	if cfg.GPUProfile != "" {
		total, err := workloads.GPUProfile(cfg.GPUProfile, fastCap)
		if err != nil {
			return nil, err
		}
		n := cfg.GPU.Subslices
		gens := make([]trace.Generator, n)
		for i := 0; i < n; i++ {
			p := total
			p.Region = total.Region / uint64(n)
			p.Hot = total.Hot / uint64(n)
			gens[i] = trace.NewPaged(
				trace.NewGPU(p, alloc(p.Region), cfg.Seed+1_000_003+int64(i)*104729),
				cfg.Seed+int64(i)*70117+2_000_029)
		}
		s.subslices = cpu.NewGPU(eng, cfg.GPU, gens, llc, ctl)
	}
	return s, nil
}

// Engine exposes the event engine (for tests).
func (s *System) Engine() *sim.Engine { return s.eng }

// Controller exposes the hybrid memory controller.
func (s *System) Controller() *hybrid.Controller { return s.ctl }

// SetObserver registers fn to receive one telemetry point per epoch —
// the knob trajectory and contention counters Figures 8-11 visualize.
// fn runs on the simulation goroutine between epochs and must return
// promptly (obs.Ring.Append qualifies); install it before Run. When
// unset the policy, tier and point bookkeeping is skipped, so runs
// without an observer pay nothing for it.
func (s *System) SetObserver(fn func(obs.EpochPoint)) { s.observe = fn }

// Run simulates the configured cycle budget and returns the results.
func (s *System) Run() Results {
	for _, c := range s.cores {
		c.Start()
	}
	for _, c := range s.subslices {
		c.Start()
	}
	s.scheduleEpoch()
	s.eng.RunUntil(s.cfg.Cycles)
	return s.results()
}

// RunContext is Run with cooperative cancellation: ctx is polled at
// every epoch boundary and a canceled run stops early, returning the
// partial results accumulated so far together with ctx.Err(). (IPC in
// partial results is still normalized by the full cfg.Cycles budget.)
func (s *System) RunContext(ctx context.Context) (Results, error) {
	if err := ctx.Err(); err != nil {
		return s.results(), err
	}
	s.ctx = ctx
	res := s.Run()
	return res, ctx.Err()
}

func (s *System) scheduleEpoch() {
	s.eng.AfterCtx(s.cfg.EpochLen, s.epochTick, 0)
}

// epochTick builds the epoch's record once: the IPC sample appended to
// the results, and the controller counters' delta over the epoch, which
// the policy's listener and the observer's point both read. The ctx
// check comes last, so the epoch that cancels a run is still delivered
// to both.
func (s *System) epochTick(_, now uint64) {
	cpuIns := cpu.Instructions(s.cores)
	gpuIns := cpu.Instructions(s.subslices)
	el := float64(s.cfg.EpochLen)
	sample := EpochSample{
		EndCycle: now,
		CPUIPC:   float64(cpuIns-s.lastCPUIns) / el,
		GPUIPC:   float64(gpuIns-s.lastGPUIns) / el,
	}
	sample.WeightedIPC = s.cfg.WeightCPU*sample.CPUIPC + s.cfg.WeightGPU*sample.GPUIPC
	s.lastCPUIns, s.lastGPUIns = cpuIns, gpuIns
	s.epochs = append(s.epochs, sample)

	st := s.ctl.Stats()
	delta := st.Delta(s.lastStats)
	s.lastStats = st
	if l, ok := s.ctl.Policy().(hybrid.EpochListener); ok {
		l.OnEpoch(hybrid.EpochMetrics{
			Now:         now,
			Stats:       delta,
			CPUIPC:      sample.CPUIPC,
			GPUIPC:      sample.GPUIPC,
			WeightedIPC: sample.WeightedIPC,
		})
	}
	if s.observe != nil {
		// Captured after OnEpoch so the point reflects the climber's
		// decision for the next epoch; the final point therefore equals
		// the run's converged configuration.
		s.observe(s.epochPoint(sample, delta))
	}
	if s.ctx != nil && s.ctx.Err() != nil {
		s.eng.Stop() // abandon the run; RunUntil drains immediately
		return
	}
	if now < s.cfg.Cycles {
		s.scheduleEpoch()
	}
}

// epochPoint assembles the epoch's obs.EpochPoint from its sample, the
// controller's delta, and the deltas of the policy and tier counters
// since the last epoch.
func (s *System) epochPoint(sample EpochSample, hd hybrid.Stats) obs.EpochPoint {
	p := obs.EpochPoint{
		Epoch:         len(s.epochs) - 1,
		EndCycle:      sample.EndCycle,
		CPUIPC:        sample.CPUIPC,
		GPUIPC:        sample.GPUIPC,
		WeightedIPC:   sample.WeightedIPC,
		CapWays:       -1,
		BwGroups:      -1,
		TokIdx:        -1,
		MigrationsCPU: hd.Migrations[0],
		MigrationsGPU: hd.Migrations[1],
		Bypassed:      hd.Bypasses[0] + hd.Bypasses[1],
		Swaps:         hd.Swaps,
		DemandCPU:     hd.Demand[0],
		DemandGPU:     hd.Demand[1],
		FastHitsCPU:   hd.FastHits[0],
		FastHitsGPU:   hd.FastHits[1],
	}

	if h, ok := s.ctl.Policy().(*core.Hydrogen); ok {
		p.CapWays, p.BwGroups, p.TokIdx = h.Point()
		ps := h.Stats()
		p.TokensGranted = ps.TokensGranted - s.lastPolicySt.TokensGranted
		p.TokensDenied = ps.TokensDenied - s.lastPolicySt.TokensDenied
		s.lastPolicySt = ps
	}

	fastBusy := s.fast.Stats().BusBusyCycles
	slowBusy := s.slow.Stats().BusBusyCycles
	el := float64(s.cfg.EpochLen)
	if n := float64(len(s.fast.Channels)); n > 0 && el > 0 {
		p.FastUtil = float64(fastBusy-s.lastFastBusy) / (el * n)
	}
	if n := float64(len(s.slow.Channels)); n > 0 && el > 0 {
		p.SlowUtil = float64(slowBusy-s.lastSlowBusy) / (el * n)
	}
	s.lastFastBusy, s.lastSlowBusy = fastBusy, slowBusy
	return p
}

func (s *System) results() Results {
	cycles := s.cfg.Cycles
	r := Results{
		PolicyName: s.ctl.Policy().Name(),
		Cycles:     cycles,
		CPUInstrs:  cpu.Instructions(s.cores),
		GPUInstrs:  cpu.Instructions(s.subslices),
		Hybrid:     s.ctl.Stats(),
		Fast:       s.fast.Stats(),
		Slow:       s.slow.Stats(),
		LLC:        s.llc.Stats(),
		Epochs:     s.epochs,
	}
	r.CPUIPC = float64(r.CPUInstrs) / float64(cycles)
	r.GPUIPC = float64(r.GPUInstrs) / float64(cycles)
	r.FastDynamicPJ = r.Fast.DynamicPJ
	r.SlowDynamicPJ = r.Slow.DynamicPJ
	r.FastStaticPJ = s.fast.StaticPJ(cycles)
	r.SlowStaticPJ = s.slow.StaticPJ(cycles)
	return r
}

// OperatingPoint reports the current (cap, bw, tok) point of the
// system's policy when it is a Hydrogen instance; ok is false otherwise.
func (s *System) OperatingPoint() (cpuWays, cpuGroups, tokIdx int, ok bool) {
	h, isHydrogen := s.ctl.Policy().(*core.Hydrogen)
	if !isHydrogen {
		return 0, 0, 0, false
	}
	cpuWays, cpuGroups, tokIdx = h.Point()
	return cpuWays, cpuGroups, tokIdx, true
}

// PolicyStats returns Hydrogen's internal counters when the policy is a
// Hydrogen instance.
func (s *System) PolicyStats() (core.Stats, bool) {
	h, isHydrogen := s.ctl.Policy().(*core.Hydrogen)
	if !isHydrogen {
		return core.Stats{}, false
	}
	return h.Stats(), true
}

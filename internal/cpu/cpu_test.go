package cpu

import (
	"testing"

	"github.com/hydrogen-sim/hydrogen/internal/caches"
	"github.com/hydrogen-sim/hydrogen/internal/memory/dram"
	"github.com/hydrogen-sim/hydrogen/internal/sim"
	"github.com/hydrogen-sim/hydrogen/internal/trace"
)

// fakeMem is a Memory with a fixed latency and request log.
type fakeMem struct {
	eng     *sim.Engine
	latency uint64
	reads   int
	writes  int
	bySrc   [2]int
}

func (m *fakeMem) Access(addr uint64, write bool, src dram.Source, done func(uint64)) {
	if write {
		m.writes++
	} else {
		m.reads++
	}
	m.bySrc[src]++
	if done != nil {
		m.eng.AfterCtx(m.latency, func(_, now uint64) { done(now) }, 0)
	}
}

// scriptGen plays a fixed op list.
type scriptGen struct {
	ops []trace.Op
	i   int
}

func (g *scriptGen) Next() (trace.Op, bool) {
	if g.i >= len(g.ops) {
		return trace.Op{}, false
	}
	op := g.ops[g.i]
	g.i++
	return op, true
}

func smallCfg() Config {
	cfg := DefaultConfig()
	cfg.L2.SizeBytes = 8 << 10
	return cfg
}

func newLLC() *caches.Cache {
	return caches.New(caches.Config{Name: "LLC", SizeBytes: 64 << 10, Assoc: 8, BlockBytes: 64, Latency: 38})
}

func TestRetiresInstructions(t *testing.T) {
	eng := sim.New()
	mem := &fakeMem{eng: eng, latency: 100}
	ops := []trace.Op{{Gap: 10, Addr: 0}, {Gap: 10, Addr: 64}, {Gap: 10, Addr: 128}}
	c := New(eng, smallCfg(), &scriptGen{ops: ops}, newLLC(), mem)
	c.Start()
	eng.Run()
	if !c.Exhausted() {
		t.Fatal("trace not consumed")
	}
	if got := c.Instructions(); got != 33 {
		t.Fatalf("retired %d instructions, want 33 (3 x (10+1))", got)
	}
	loads, stores, _ := c.Stats()
	if loads != 3 || stores != 0 {
		t.Fatalf("loads %d stores %d", loads, stores)
	}
}

func TestLoadMissGoesToMemoryOnceThenHits(t *testing.T) {
	eng := sim.New()
	mem := &fakeMem{eng: eng, latency: 100}
	// The first op's gap retires over 150 cycles, past the 100-cycle
	// memory latency, so the second access finds the line filled in L2.
	ops := []trace.Op{{Gap: 300, Addr: 0x1000}, {Gap: 1, Addr: 0x1000}}
	c := New(eng, smallCfg(), &scriptGen{ops: ops}, newLLC(), mem)
	c.Start()
	eng.Run()
	if mem.reads != 1 {
		t.Fatalf("memory reads %d, want 1 (second access hits L2)", mem.reads)
	}
	l2 := c.CacheStats()
	if l2.Hits != 1 {
		t.Fatalf("L2 hits %d, want 1", l2.Hits)
	}
}

func TestMSHRCoalescesSameLine(t *testing.T) {
	eng := sim.New()
	mem := &fakeMem{eng: eng, latency: 1000}
	// Back-to-back accesses to one line while the miss is in flight.
	ops := []trace.Op{{Gap: 1, Addr: 0x2000}, {Gap: 1, Addr: 0x2010}, {Gap: 1, Addr: 0x2020}}
	c := New(eng, smallCfg(), &scriptGen{ops: ops}, newLLC(), mem)
	c.Start()
	eng.Run()
	if mem.reads != 1 {
		t.Fatalf("memory reads %d, want 1 (MSHR coalescing)", mem.reads)
	}
}

func TestStoresDoNotStall(t *testing.T) {
	eng := sim.New()
	mem := &fakeMem{eng: eng, latency: 10_000}
	var ops []trace.Op
	for i := 0; i < 50; i++ {
		ops = append(ops, trace.Op{Gap: 1, Addr: uint64(i) * 4096, Write: true})
	}
	c := New(eng, smallCfg(), &scriptGen{ops: ops}, newLLC(), mem)
	c.Start()
	eng.RunUntil(5000)
	if !c.Exhausted() {
		t.Fatal("store-only trace did not finish quickly; stores are stalling")
	}
	if mem.writes != 50 {
		t.Fatalf("memory writes %d, want 50 (write-around)", mem.writes)
	}
}

func TestMLPWindowStalls(t *testing.T) {
	eng := sim.New()
	mem := &fakeMem{eng: eng, latency: 10_000}
	cfg := smallCfg()
	cfg.MLP = 2
	var ops []trace.Op
	for i := 0; i < 10; i++ {
		ops = append(ops, trace.Op{Gap: 1, Addr: uint64(i) * 4096})
	}
	c := New(eng, cfg, &scriptGen{ops: ops}, newLLC(), mem)
	c.Start()
	eng.RunUntil(5000)
	// With MLP 2 and 10k-cycle memory, only 2 loads can be outstanding.
	if mem.reads != 2 {
		t.Fatalf("outstanding loads %d, want MLP limit 2", mem.reads)
	}
	_, _, stalls := c.Stats()
	if stalls == 0 {
		t.Fatal("no stall recorded at MLP limit")
	}
	eng.Run()
	if mem.reads != 10 {
		t.Fatalf("total reads %d, want 10 after completions unblock the core", mem.reads)
	}
}

func TestLowerLatencyMeansHigherIPC(t *testing.T) {
	run := func(lat uint64) float64 {
		eng := sim.New()
		mem := &fakeMem{eng: eng, latency: lat}
		var ops []trace.Op
		for i := 0; i < 500; i++ {
			ops = append(ops, trace.Op{Gap: 20, Addr: uint64(i) * 4096})
		}
		c := New(eng, smallCfg(), &scriptGen{ops: ops}, newLLC(), mem)
		c.Start()
		eng.Run()
		return float64(c.Instructions()) / float64(eng.Now())
	}
	fast, slow := run(50), run(500)
	if fast <= slow*1.5 {
		t.Fatalf("IPC %f at 50cyc vs %f at 500cyc; core is not latency-sensitive", fast, slow)
	}
}

func TestDirtyL2VictimWritesBack(t *testing.T) {
	eng := sim.New()
	mem := &fakeMem{eng: eng, latency: 10}
	cfg := smallCfg()
	cfg.L2.SizeBytes = 1 << 10 // 16 lines: tiny, forces evictions
	cfg.L2.Assoc = 2
	var ops []trace.Op
	ops = append(ops, trace.Op{Gap: 1, Addr: 0})              // load, miss, fill
	ops = append(ops, trace.Op{Gap: 1, Addr: 0, Write: true}) // dirty it in L2
	for i := 1; i < 40; i++ {                                 // push it out
		ops = append(ops, trace.Op{Gap: 1, Addr: uint64(i) * 64})
	}
	llc := caches.New(caches.Config{Name: "LLC", SizeBytes: 512, Assoc: 2, BlockBytes: 64, Latency: 38})
	c := New(eng, cfg, &scriptGen{ops: ops}, llc, mem)
	c.Start()
	eng.Run()
	if mem.writes == 0 {
		t.Fatal("dirty eviction chain produced no memory writes")
	}
}

// GPU subslices: the same Core in its NewGPU shape.

func streamGens(n int, length uint64) []trace.Generator {
	gens := make([]trace.Generator, n)
	for i := range gens {
		gens[i] = &trace.Limit{
			G: trace.NewGPU(trace.GPUParams{Region: 1 << 22, MeanGap: 10}, uint64(i)<<24, int64(i+1)),
			N: length,
		}
	}
	return gens
}

func smallGPUCfg() GPUConfig {
	cfg := DefaultGPUConfig()
	cfg.Subslices = 2
	cfg.L1.SizeBytes = 8 << 10
	return cfg
}

func startAll(cores []*Core) {
	for _, c := range cores {
		c.Start()
	}
}

func allExhausted(cores []*Core) bool {
	for _, c := range cores {
		if !c.Exhausted() {
			return false
		}
	}
	return true
}

func totalStats(cores []*Core) (loads, stores, stalls uint64) {
	for _, c := range cores {
		l, s, st := c.Stats()
		loads, stores, stalls = loads+l, stores+s, stalls+st
	}
	return
}

func TestAllSubslicesRun(t *testing.T) {
	eng := sim.New()
	mem := &fakeMem{eng: eng, latency: 50}
	g := NewGPU(eng, smallGPUCfg(), streamGens(2, 100), newLLC(), mem)
	startAll(g)
	eng.Run()
	if !allExhausted(g) {
		t.Fatal("subslices did not drain their traces")
	}
	if Instructions(g) == 0 {
		t.Fatal("no GPU instructions retired")
	}
	if loads, _, _ := totalStats(g); loads == 0 {
		t.Fatal("no loads issued")
	}
	if mem.bySrc[dram.SourceCPU] != 0 {
		t.Fatal("GPU issued requests tagged as CPU")
	}
}

func TestLatencyToleranceVsCPU(t *testing.T) {
	// The defining GPU property: throughput barely moves between 50 and
	// 500-cycle memory while the window is deep enough.
	run := func(lat uint64, window int) float64 {
		eng := sim.New()
		mem := &fakeMem{eng: eng, latency: lat}
		cfg := smallGPUCfg()
		cfg.Window = window
		g := NewGPU(eng, cfg, streamGens(2, 3000), newLLC(), mem)
		startAll(g)
		eng.Run()
		return float64(Instructions(g)) / float64(eng.Now())
	}
	deepFast, deepSlow := run(50, 512), run(500, 512)
	if deepSlow < deepFast*0.5 {
		t.Fatalf("deep-window GPU IPC fell from %.2f to %.2f with 10x latency; not latency-tolerant",
			deepFast, deepSlow)
	}
	shallowSlow := run(500, 2)
	if shallowSlow >= deepSlow {
		t.Fatalf("window 2 IPC %.2f >= window 512 IPC %.2f at 500 cycles; window has no effect",
			shallowSlow, deepSlow)
	}
}

func TestL1FiltersRepeats(t *testing.T) {
	eng := sim.New()
	mem := &fakeMem{eng: eng, latency: 20}
	// Two passes over a tiny region that fits L1.
	gen := &trace.Limit{
		G: trace.NewGPU(trace.GPUParams{Region: 4 << 10, MeanGap: 10}, 0, 3),
		N: 256, // 4 passes of 64 lines
	}
	cfg := smallGPUCfg()
	cfg.Subslices = 1
	g := NewGPU(eng, cfg, []trace.Generator{gen}, newLLC(), mem)
	startAll(g)
	eng.Run()
	if st := g[0].CacheStats(); st.Hits == 0 {
		t.Fatal("repeated scan never hit GPU L1")
	}
	if mem.reads > 80 {
		t.Fatalf("%d memory reads for a 64-line region; L1 not filtering", mem.reads)
	}
}

func TestStallAccounting(t *testing.T) {
	eng := sim.New()
	mem := &fakeMem{eng: eng, latency: 100_000}
	cfg := smallGPUCfg()
	cfg.Window = 4
	g := NewGPU(eng, cfg, streamGens(2, 1000), newLLC(), mem)
	startAll(g)
	eng.RunUntil(50_000)
	if _, _, stalls := totalStats(g); stalls == 0 {
		t.Fatal("no stalls with a 4-deep window and 100k-cycle memory")
	}
	if mem.reads != 2*4 {
		t.Fatalf("reads %d, want per-subslice window limit 2x4", mem.reads)
	}
}

func TestExhaustedEmptyGPU(t *testing.T) {
	eng := sim.New()
	g := NewGPU(eng, smallGPUCfg(), nil, newLLC(), &fakeMem{eng: eng, latency: 1})
	startAll(g)
	eng.Run()
	if !allExhausted(g) {
		t.Fatal("GPU with no subslices should be trivially exhausted")
	}
}

// TestOnlyCPUWaitsOutHitLatency: the two shapes differ in the hit
// latencies a load is charged. On a trace of repeated loads to one line
// a CPU core waits out the L2 latency on every hit; a subslice issues on.
func TestOnlyCPUWaitsOutHitLatency(t *testing.T) {
	ops := make([]trace.Op, 100)
	for i := range ops {
		ops[i] = trace.Op{Gap: 1, Addr: 0x40}
	}
	run := func(build func(*sim.Engine, *fakeMem) *Core) uint64 {
		eng := sim.New()
		build(eng, &fakeMem{eng: eng, latency: 10}).Start()
		eng.Run()
		return eng.Now()
	}
	cpuCycles := run(func(eng *sim.Engine, mem *fakeMem) *Core {
		return New(eng, smallCfg(), &scriptGen{ops: ops}, newLLC(), mem)
	})
	gpuCycles := run(func(eng *sim.Engine, mem *fakeMem) *Core {
		return NewGPU(eng, smallGPUCfg(), []trace.Generator{&scriptGen{ops: ops}}, newLLC(), mem)[0]
	})
	// Most of the 100 loads hit L2 (the GPU's first few are MSHR hits
	// on the line still in flight), so the CPU core waits out the L2
	// latency about 100 times while the subslice issues about one load
	// a cycle.
	l2 := smallCfg().L2.Latency
	if want := uint64(len(ops)/2) * l2; cpuCycles < want {
		t.Fatalf("CPU took %d cycles, want %d or more (L2 latency %d per hit)", cpuCycles, want, l2)
	}
	if limit := uint64(2 * len(ops)); gpuCycles > limit {
		t.Fatalf("GPU took %d cycles for %d loads, want at most %d: hit latency is charged", gpuCycles, len(ops), limit)
	}
}

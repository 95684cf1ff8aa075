// Package cpu models the processors of Table I as one trace-driven
// issuer, Core, in two shapes. The trace abstraction level is post-L1
// for the CPU (DESIGN.md): its L1 and pipeline are folded into the base
// IPC and the instruction gaps of the trace.
//
//   - A CPU core (New): 2-wide, a private L2 (1 MB, 9 cycles) behind the
//     shared LLC (16 MB, 38 cycles), and a small memory-level-parallelism
//     window, so load misses serialize and memory *latency* directly
//     throttles IPC — why CPUs prefer fast-memory capacity (more hits)
//     over bandwidth (Section III-B).
//   - A GPU subslice (NewGPU): 16 EUs of the 96-EU Xe-LPG GPU
//     (Section II-B) with a 128 kB L1. Massive thread-level parallelism
//     hides its hit latency and gives it a deep miss window, so the GPU
//     tolerates latency and is throttled by *bandwidth* — why it prefers
//     fast-memory bandwidth over capacity.
//
// The two shapes differ only in their parameters: request source, issue
// width, miss window, private cache, and the hit latencies a load waits
// out.
package cpu

import (
	"github.com/hydrogen-sim/hydrogen/internal/caches"
	"github.com/hydrogen-sim/hydrogen/internal/container"
	"github.com/hydrogen-sim/hydrogen/internal/memory/dram"
	"github.com/hydrogen-sim/hydrogen/internal/sim"
	"github.com/hydrogen-sim/hydrogen/internal/trace"
)

// Config shapes one CPU core.
type Config struct {
	BaseIPC uint32 // retire width on non-memory instructions (Table I class core: 2)
	MLP     int    // outstanding load misses before the core stalls
	L2      caches.Config
	LLCLat  uint64 // shared LLC access latency
}

// DefaultConfig returns the Table I core: 2-wide, MLP 4, 1 MB 8-way L2
// at 9 cycles.
func DefaultConfig() Config {
	return Config{
		BaseIPC: 2,
		MLP:     4,
		L2: caches.Config{
			Name: "L2", SizeBytes: 1 << 20, Assoc: 8, BlockBytes: 64, Latency: 9,
		},
		LLCLat: 38,
	}
}

// GPUConfig shapes the integrated GPU. A subslice hides hit latency, so
// neither L1.Latency nor LLCLat is charged; both stay only because they
// are part of the configuration's wire form.
type GPUConfig struct {
	Subslices   int    // 6 in Table I (16 EUs each)
	IssuePerCyc uint32 // GPU instructions retired per cycle per subslice
	Window      int    // outstanding load misses per subslice
	L1          caches.Config
	LLCLat      uint64 // not charged
}

// DefaultGPUConfig returns the Table I GPU: 6 subslices, 128 kB L1 per
// subslice.
func DefaultGPUConfig() GPUConfig {
	return GPUConfig{
		Subslices:   6,
		IssuePerCyc: 8,
		Window:      128,
		L1: caches.Config{
			Name: "GPUL1", SizeBytes: 128 << 10, Assoc: 8, BlockBytes: 64, Latency: 4,
		},
		LLCLat: 38,
	}
}

// Memory is the interface a core drives below the LLC; implemented by
// hybrid.Controller.
type Memory interface {
	Access(addr uint64, write bool, src dram.Source, done func(uint64))
}

// Core is one trace-driven issuer: a CPU core or a GPU subslice.
type Core struct {
	eng    *sim.Engine
	src    dram.Source
	width  uint64 // instructions retired per cycle between memory ops
	window int    // outstanding load misses before issue stalls
	// privLat and llcLat are the hit latencies a load waits out in the
	// private cache and the LLC; a miss waits out both before the core
	// issues on. Zero on a GPU subslice, whose threads hide them.
	privLat, llcLat uint64
	gen             trace.Generator
	priv            *caches.Cache // private cache: CPU L2 or GPU L1
	llc             *caches.Cache
	mem             Memory

	outstanding int
	blocked     bool
	exhausted   bool
	pending     container.Table // lines with an in-flight miss (MSHR)

	// stepFn is c.step bound once; scheduling a bound method value each
	// cycle would allocate it anew every time.
	stepFn  func(ctx, now uint64)
	tokFree []*loadToken // pooled per-miss completion records

	instrs uint64 // retired instructions
	loads  uint64
	stores uint64
	stalls uint64 // times the miss window filled
}

// loadToken carries one in-flight load miss so its completion callback
// is allocated once per window slot, not once per miss. The token
// returns to the pool inside complete, before completeLoad can issue
// new misses.
type loadToken struct {
	c    *Core
	addr uint64
	fn   func(uint64)
}

func (t *loadToken) complete(uint64) {
	c, addr := t.c, t.addr
	c.tokFree = append(c.tokFree, t)
	c.completeLoad(addr)
}

func (c *Core) getToken(addr uint64) *loadToken {
	if n := len(c.tokFree); n > 0 {
		t := c.tokFree[n-1]
		c.tokFree = c.tokFree[:n-1]
		t.addr = addr
		return t
	}
	t := &loadToken{c: c, addr: addr}
	t.fn = t.complete
	return t
}

// New builds a CPU core. llc is the shared last-level cache instance.
func New(eng *sim.Engine, cfg Config, gen trace.Generator, llc *caches.Cache, mem Memory) *Core {
	return newCore(&Core{
		src: dram.SourceCPU, width: uint64(cfg.BaseIPC), window: cfg.MLP,
		privLat: cfg.L2.Latency, llcLat: cfg.LLCLat, priv: caches.New(cfg.L2),
	}, eng, gen, llc, mem)
}

// NewGPU builds one GPU subslice per generator; llc is the shared LLC
// instance.
func NewGPU(eng *sim.Engine, cfg GPUConfig, gens []trace.Generator, llc *caches.Cache, mem Memory) []*Core {
	subslices := make([]*Core, len(gens))
	for i, gen := range gens {
		subslices[i] = newCore(&Core{
			src: dram.SourceGPU, width: uint64(cfg.IssuePerCyc), window: cfg.Window,
			priv: caches.New(cfg.L1),
		}, eng, gen, llc, mem)
	}
	return subslices
}

func newCore(c *Core, eng *sim.Engine, gen trace.Generator, llc *caches.Cache, mem Memory) *Core {
	c.eng, c.gen, c.llc, c.mem = eng, gen, llc, mem
	c.stepFn = c.step
	return c
}

// Start schedules the core's first issue event.
func (c *Core) Start() { c.eng.AfterCtx(1, c.stepFn, 0) }

// Instructions returns the retired instruction count.
func (c *Core) Instructions() uint64 { return c.instrs }

// Instructions returns the instructions retired across cores.
func Instructions(cores []*Core) uint64 {
	var total uint64
	for _, c := range cores {
		total += c.instrs
	}
	return total
}

// Stats returns (loads, stores, stall events).
func (c *Core) Stats() (loads, stores, stalls uint64) { return c.loads, c.stores, c.stalls }

// CacheStats exposes the private-cache counters.
func (c *Core) CacheStats() caches.Stats { return c.priv.Stats() }

// Exhausted reports whether the trace ended.
func (c *Core) Exhausted() bool { return c.exhausted }

func (c *Core) step(_, _ uint64) {
	if c.blocked || c.exhausted {
		return
	}
	op, ok := c.gen.Next()
	if !ok {
		c.exhausted = true
		return
	}
	// Non-memory instructions retire at the issue width.
	cost := uint64(op.Gap) / c.width
	if cost == 0 {
		cost = 1
	}
	c.instrs += uint64(op.Gap) + 1

	if op.Write {
		c.stores++
		c.store(op.Addr)
		c.eng.AfterCtx(cost, c.stepFn, 0)
		return
	}
	c.loads++
	c.load(op.Addr, cost)
}

// store is fire-and-forget through the write buffer: dirty the caches on
// a hit, write around to memory on a full miss.
func (c *Core) store(addr uint64) {
	if c.priv.Access(addr, true) {
		return
	}
	if c.llc.Access(addr, true) {
		return
	}
	c.mem.Access(addr, true, c.src, nil)
}

// load walks private cache -> LLC -> memory, waiting out the hit
// latencies it is charged. A miss occupies a window slot and stalls
// issue only when the window fills.
func (c *Core) load(addr uint64, cost uint64) {
	if c.priv.Access(addr, false) {
		c.eng.AfterCtx(cost+c.privLat, c.stepFn, 0)
		return
	}
	traversal := c.privLat + c.llcLat
	if c.llc.Access(addr, false) {
		c.fillPriv(addr)
		c.eng.AfterCtx(cost+traversal, c.stepFn, 0)
		return
	}
	line := addr &^ 63
	if c.pending.Has(line) {
		// MSHR hit: the line is already on its way; don't issue a
		// duplicate memory access or occupy another window slot.
		c.eng.AfterCtx(cost+traversal, c.stepFn, 0)
		return
	}
	c.pending.Put(line, 0)
	c.outstanding++
	c.mem.Access(addr, false, c.src, c.getToken(addr).fn)
	if c.outstanding >= c.window {
		c.blocked = true
		c.stalls++
		return
	}
	c.eng.AfterCtx(cost+traversal, c.stepFn, 0)
}

func (c *Core) completeLoad(addr uint64) {
	c.pending.Delete(addr &^ 63)
	c.outstanding--
	c.fillLLC(addr)
	c.fillPriv(addr)
	if c.blocked {
		c.blocked = false
		c.eng.AfterCtx(1, c.stepFn, 0)
	}
}

func (c *Core) fillPriv(addr uint64) {
	v := c.priv.Fill(addr, false)
	if v.Valid && v.Dirty {
		// Dirty private victims land in the (inclusive-enough) LLC when
		// present, else go to memory.
		if !c.llc.Access(v.Addr, true) {
			c.mem.Access(v.Addr, true, c.src, nil)
		}
	}
}

func (c *Core) fillLLC(addr uint64) {
	v := c.llc.Fill(addr, false)
	if v.Valid && v.Dirty {
		c.mem.Access(v.Addr, true, c.src, nil)
	}
}

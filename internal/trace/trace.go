// Package trace defines the memory-operation trace model that drives the
// processor models, plus deterministic synthetic generators that stand in
// for the paper's Pin/CUDA traces of SPEC CPU2017, Rodinia, and MLPerf
// BERT (which are proprietary or hardware-gated; see DESIGN.md).
//
// Generators produce an endless stream of operations at the post-L1
// abstraction level: each Op carries the number of non-memory
// instructions retired since the previous op (Gap), so the cores can
// account IPC, and a 64 B-aligned address.
//
// Randomness comes from an inline splitmix64 stream plus a precomputed
// inverse-CDF Zipf sampler (rng.go) rather than math/rand: the
// generators sit on the simulation's hot path, and both are
// deterministic per seed, which the engine's reproducibility guarantee
// requires.
package trace

// Op is one memory operation.
type Op struct {
	Gap   uint32 // instructions retired before this op (the op itself adds one)
	Addr  uint64
	Write bool
}

// Generator produces a deterministic stream of operations. Next reports
// false when the trace is exhausted (synthetic generators never are).
type Generator interface {
	Next() (Op, bool)
}

// CPUParams shapes a synthetic CPU workload. Region sizes are in bytes;
// the profile registry scales them from fractions of the fast-tier
// capacity. Access-class fractions (Hot/Stream/Chase) should sum to at
// most 1; the remainder goes to uniform accesses over the footprint.
type CPUParams struct {
	Footprint  uint64 // total bytes this instance touches
	Hot        uint64 // hot-region bytes, accessed with a Zipf distribution
	HotFrac    float64
	StreamFrac float64 // sequential scan over the footprint
	ChaseFrac  float64 // dependent-pointer-like uniform random accesses
	WriteFrac  float64
	MeanGap    uint32  // mean instructions between memory ops
	ZipfS      float64 // Zipf skew (>1); 0 selects the default 1.2
}

// CPUGen generates a CPU workload stream.
type CPUGen struct {
	p      CPUParams
	base   uint64
	rng    xrng
	zipf   *zipfTable
	stream uint64
}

// NewCPU builds a generator over [base, base+Footprint).
func NewCPU(p CPUParams, base uint64, seed int64) *CPUGen {
	if p.Footprint < 4096 {
		p.Footprint = 4096
	}
	if p.Hot < 1024 {
		p.Hot = 1024
	}
	if p.Hot > p.Footprint {
		p.Hot = p.Footprint
	}
	if p.MeanGap == 0 {
		p.MeanGap = 30
	}
	if p.ZipfS == 0 {
		p.ZipfS = 1.2
	}
	// The Zipf draw is over 256 B blocks, not lines: hot program data is
	// block-grained (structs, tree nodes, rows), which is what makes
	// block migration profitable in hybrid memories.
	hotBlocks := p.Hot / 256
	if hotBlocks < 2 {
		hotBlocks = 2
	}
	return &CPUGen{
		p:    p,
		base: base &^ 63,
		rng:  newXrng(seed),
		zipf: sharedZipfTable(p.ZipfS, hotBlocks),
	}
}

func gap(rng *xrng, mean uint32) uint32 {
	if mean <= 1 {
		return 1
	}
	// Uniform in [mean/2, 3*mean/2): cheap, and bursty enough.
	return mean/2 + uint32(rng.uintn(uint64(mean)))
}

// Next implements Generator.
func (g *CPUGen) Next() (Op, bool) {
	p := &g.p
	r := g.rng.float64()
	var addr uint64
	switch {
	case r < p.HotFrac:
		addr = g.base + g.zipf.draw(&g.rng)*256 + g.rng.uintn(4)*64
	case r < p.HotFrac+p.StreamFrac:
		addr = g.base + g.stream
		g.stream += 64
		if g.stream >= p.Footprint {
			g.stream = 0
		}
	default:
		// Chase and uniform classes both draw uniformly over the
		// footprint; the chase class differs in the core model (dependent
		// loads serialize), which low CPU MLP already captures.
		addr = g.base + g.rng.uintn(p.Footprint/64)*64
	}
	return Op{
		Gap:   gap(&g.rng, p.MeanGap),
		Addr:  addr,
		Write: g.rng.float64() < p.WriteFrac,
	}, true
}

// GPUParams shapes one GPU subslice's stream. GPUs in the paper are
// streaming, high-bandwidth, latency-tolerant; the knobs that matter for
// Hydrogen are footprint (does the data refit the GPU's fast-tier
// share), block utilization (how many 64 B lines of each 256 B block a
// pass touches — low utilization makes migrations wasteful, the
// streamcluster effect), and irregularity.
type GPUParams struct {
	Region      uint64  // bytes this subslice streams over
	Hot         uint64  // re-read region (weights, tiles); 0 disables
	HotFrac     float64 // fraction of accesses to the hot region
	IrregFrac   float64 // uniform random accesses over the region
	StrideLines uint64  // lines skipped per streaming step (1 = touch all)
	WriteFrac   float64
	MeanGap     uint32 // mean GPU instructions between memory ops
}

// GPUGen generates one subslice's stream.
type GPUGen struct {
	p      GPUParams
	base   uint64
	rng    xrng
	stream uint64
	hotPos uint64
}

// NewGPU builds a generator over [base, base+Region).
func NewGPU(p GPUParams, base uint64, seed int64) *GPUGen {
	if p.Region < 4096 {
		p.Region = 4096
	}
	if p.StrideLines == 0 {
		p.StrideLines = 1
	}
	if p.MeanGap == 0 {
		p.MeanGap = 12
	}
	if p.Hot > p.Region {
		p.Hot = p.Region
	}
	return &GPUGen{p: p, base: base &^ 63, rng: newXrng(seed)}
}

// Next implements Generator.
func (g *GPUGen) Next() (Op, bool) {
	p := &g.p
	r := g.rng.float64()
	var addr uint64
	switch {
	case p.Hot > 0 && r < p.HotFrac:
		// Hot region: sequential re-reads (weight matrices, tiles).
		addr = g.base + g.hotPos
		g.hotPos += 64
		if g.hotPos >= p.Hot {
			g.hotPos = 0
		}
	case r < p.HotFrac+p.IrregFrac:
		addr = g.base + g.rng.uintn(p.Region/64)*64
	default:
		addr = g.base + g.stream
		g.stream += 64 * p.StrideLines
		if g.stream >= p.Region {
			g.stream = 0
		}
	}
	return Op{
		Gap:   gap(&g.rng, p.MeanGap),
		Addr:  addr,
		Write: g.rng.float64() < p.WriteFrac,
	}, true
}

// Limit wraps a generator and ends the stream after n operations; used
// to bound finite streams in tests.
type Limit struct {
	G Generator
	N uint64
}

// Next implements Generator.
func (l *Limit) Next() (Op, bool) {
	if l.N == 0 {
		return Op{}, false
	}
	l.N--
	return l.G.Next()
}

// Slice materializes up to n ops, for tests and inspection tools.
func Slice(g Generator, n int) []Op {
	out := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		op, ok := g.Next()
		if !ok {
			break
		}
		out = append(out, op)
	}
	return out
}

// Paged maps a generator's region-linear ("virtual") addresses onto a
// scattered physical layout, page by page, the way an OS's physical
// page allocator does. Without this, regions laid out back-to-back
// collide *systematically* in the hybrid memory's set index space
// (region bases share alignment), which no real system exhibits.
// Within a page, addresses stay sequential, preserving block spatial
// locality and DRAM row locality.
type Paged struct {
	G    Generator
	Seed uint64
}

// pageShift is log2 of Paged's page size, 4 kB.
const pageShift = 12

// AddrBits bounds Paged's physical space: every address Paged returns
// is below 1<<AddrBits, 2^31 pages of 4 kB (8 TB). The hybrid memory's
// remap entries rely on the bound to pack a block index and a recency
// stamp into one word.
const AddrBits = 43

// NewPaged wraps g with a 4 kB page scatter.
func NewPaged(g Generator, seed int64) *Paged {
	return &Paged{G: g, Seed: uint64(seed)}
}

// Next implements Generator.
func (p *Paged) Next() (Op, bool) {
	op, ok := p.G.Next()
	if !ok {
		return op, false
	}
	vpage := op.Addr >> pageShift
	// splitmix64-style hash of (seed, vpage) into the 2^31-page (8 TB)
	// physical space: uniform set distribution, collision-free in
	// practice for timing purposes.
	x := vpage*0x9e3779b97f4a7c15 + p.Seed*0xda942042e4dd58b5
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	ppage := x % (1 << (AddrBits - pageShift))
	op.Addr = ppage<<pageShift | op.Addr&(1<<pageShift-1)
	return op, true
}

package trace

import "testing"

func cpuParams() CPUParams {
	return CPUParams{
		Footprint: 1 << 20, Hot: 64 << 10,
		HotFrac: 0.6, StreamFrac: 0.2, ChaseFrac: 0.1,
		WriteFrac: 0.3, MeanGap: 30,
	}
}

func TestCPUGenDeterministic(t *testing.T) {
	a := Slice(NewCPU(cpuParams(), 0, 42), 1000)
	b := Slice(NewCPU(cpuParams(), 0, 42), 1000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := Slice(NewCPU(cpuParams(), 0, 43), 1000)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestCPUGenBounds(t *testing.T) {
	p := cpuParams()
	base := uint64(1 << 30)
	for _, op := range Slice(NewCPU(p, base, 1), 20000) {
		if op.Addr < base || op.Addr >= base+p.Footprint {
			t.Fatalf("address %#x outside [%#x, %#x)", op.Addr, base, base+p.Footprint)
		}
		if op.Addr%64 != 0 {
			t.Fatalf("address %#x not 64B aligned", op.Addr)
		}
		if op.Gap == 0 {
			t.Fatal("zero gap")
		}
	}
}

func TestCPUGenHotLocality(t *testing.T) {
	p := cpuParams()
	p.HotFrac = 0.9
	counts := map[uint64]int{}
	ops := Slice(NewCPU(p, 0, 7), 50000)
	inHot := 0
	for _, op := range ops {
		if op.Addr < p.Hot {
			inHot++
		}
		counts[op.Addr]++
	}
	if frac := float64(inHot) / float64(len(ops)); frac < 0.85 {
		t.Fatalf("hot fraction %.2f, want >= 0.85", frac)
	}
	// Zipf skew: the single most popular line should absorb far more
	// than a uniform share of the hot accesses.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	uniform := float64(inHot) / float64(p.Hot/64)
	if float64(max) < 5*uniform {
		t.Fatalf("top line count %d vs uniform %.1f; no Zipf skew", max, uniform)
	}
}

func TestCPUGenWriteFraction(t *testing.T) {
	p := cpuParams()
	p.WriteFrac = 0.25
	writes := 0
	ops := Slice(NewCPU(p, 0, 3), 40000)
	for _, op := range ops {
		if op.Write {
			writes++
		}
	}
	frac := float64(writes) / float64(len(ops))
	if frac < 0.22 || frac > 0.28 {
		t.Fatalf("write fraction %.3f, want ~0.25", frac)
	}
}

func TestGPUGenStreaming(t *testing.T) {
	p := GPUParams{Region: 1 << 20, StrideLines: 1, MeanGap: 10}
	ops := Slice(NewGPU(p, 0, 5), 1000)
	seq := 0
	for i := 1; i < len(ops); i++ {
		if ops[i].Addr == ops[i-1].Addr+64 {
			seq++
		}
	}
	if frac := float64(seq) / float64(len(ops)); frac < 0.9 {
		t.Fatalf("sequential fraction %.2f, want >= 0.9 for a pure stream", frac)
	}
}

func TestGPUGenStrideSkipsLines(t *testing.T) {
	p := GPUParams{Region: 1 << 20, StrideLines: 4, MeanGap: 10}
	ops := Slice(NewGPU(p, 0, 5), 4096)
	touched := map[uint64]bool{}
	for _, op := range ops {
		touched[(op.Addr%256)/64] = true
	}
	// Stride 4 lines = one line per 256B block, always the same offset.
	if len(touched) != 1 {
		t.Fatalf("stride-4 stream touched %d distinct line offsets, want 1", len(touched))
	}
}

func TestGPUGenHotReuse(t *testing.T) {
	p := GPUParams{Region: 1 << 22, Hot: 1 << 16, HotFrac: 0.5, MeanGap: 10}
	inHot := 0
	ops := Slice(NewGPU(p, 0, 9), 20000)
	for _, op := range ops {
		if op.Addr < p.Hot {
			inHot++
		}
	}
	frac := float64(inHot) / float64(len(ops))
	if frac < 0.45 || frac > 0.60 {
		t.Fatalf("hot fraction %.2f, want ~0.5", frac)
	}
}

func TestLimit(t *testing.T) {
	l := &Limit{G: NewCPU(cpuParams(), 0, 1), N: 5}
	n := 0
	for {
		_, ok := l.Next()
		if !ok {
			break
		}
		n++
	}
	if n != 5 {
		t.Fatalf("limit yielded %d ops, want 5", n)
	}
}

// addrGen replays a fixed list of addresses.
type addrGen []uint64

func (g *addrGen) Next() (Op, bool) {
	if len(*g) == 0 {
		return Op{}, false
	}
	op := Op{Addr: (*g)[0]}
	*g = (*g)[1:]
	return op, true
}

// TestPagedBelowAddrBits feeds Paged virtual addresses from all over the
// 64-bit space, under many seeds: every physical address it returns is
// below 1<<AddrBits and keeps its page offset.
func TestPagedBelowAddrBits(t *testing.T) {
	r := newXrng(3)
	in := []uint64{0, 1<<pageShift - 1, 1<<AddrBits - 1, 1 << AddrBits, 1 << 63, ^uint64(0)}
	for len(in) < 4096 {
		in = append(in, r.next())
	}
	for seed := int64(0); seed < 64; seed++ {
		g := addrGen(in)
		p := NewPaged(&g, seed)
		for i := range in {
			op, ok := p.Next()
			if !ok {
				t.Fatalf("seed %d: stream ended after %d of %d ops", seed, i, len(in))
			}
			if op.Addr >= 1<<AddrBits || op.Addr&(1<<pageShift-1) != in[i]&(1<<pageShift-1) {
				t.Fatalf("seed %d: virtual %#x maps to %#x; want below %#x with the same page offset",
					seed, in[i], op.Addr, uint64(1)<<AddrBits)
			}
		}
	}
}

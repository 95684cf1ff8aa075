package dram

import (
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"

	"github.com/hydrogen-sim/hydrogen/internal/sim"
)

func testConfig() Config {
	return Config{
		Name:            "test",
		Channels:        1,
		BanksPerChannel: 4,
		RowBytes:        1024,
		TRCD:            10,
		TCAS:            10,
		TRP:             10,
		BytesPerCycle:   32,
		ReadPJPerBit:    1,
		WritePJPerBit:   2,
		ActPrePJ:        100,
	}
}

func TestPresetsValidate(t *testing.T) {
	for _, cfg := range []Config{HBM2E(), HBM3(), DDR4()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
	h2, h3 := HBM2E(), HBM3()
	if h3.BytesPerCycle != 2*h2.BytesPerCycle {
		t.Errorf("HBM3 bandwidth %d, want double HBM2E's %d", h3.BytesPerCycle, h2.BytesPerCycle)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Channels = 0 },
		func(c *Config) { c.BanksPerChannel = -1 },
		func(c *Config) { c.RowBytes = 1000 }, // not a power of two
		func(c *Config) { c.BytesPerCycle = 0 },
	}
	for i, mutate := range cases {
		cfg := testConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: bad config validated", i)
		}
	}
}

func TestSingleReadLatency(t *testing.T) {
	eng := sim.New()
	cfg := testConfig()
	ch := NewChannel(eng, &cfg, 0)
	var doneAt uint64
	ch.Enqueue(Request{Addr: 0, Bytes: 64, Done: func(now uint64) { doneAt = now }})
	eng.Run()
	// Cold bank: RCD+CAS prep then 64/32 = 2 burst cycles.
	want := cfg.TRCD + cfg.TCAS + 2
	if doneAt != want {
		t.Fatalf("read completed at %d, want %d", doneAt, want)
	}
	s := ch.Stats()
	if s.Reads != 1 || s.BytesRead != 64 || s.RowMisses != 1 || s.Activations != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	eng := sim.New()
	cfg := testConfig()
	ch := NewChannel(eng, &cfg, 0)
	var hitDone, confDone uint64
	ch.Enqueue(Request{Addr: 0, Bytes: 64, Done: func(uint64) {}})
	eng.Run()
	base := eng.Now()
	// Same row: hit.
	ch.Enqueue(Request{Addr: 64, Bytes: 64, Done: func(now uint64) { hitDone = now - base }})
	eng.Run()
	base = eng.Now()
	// Same bank (stride RowBytes*banks), different row: conflict.
	ch.Enqueue(Request{Addr: cfg.RowBytes * uint64(cfg.BanksPerChannel), Bytes: 64,
		Done: func(now uint64) { confDone = now - base }})
	eng.Run()
	if hitDone != cfg.TCAS+2 {
		t.Errorf("row hit latency %d, want %d", hitDone, cfg.TCAS+2)
	}
	if confDone != cfg.TRP+cfg.TRCD+cfg.TCAS+2 {
		t.Errorf("row conflict latency %d, want %d", confDone, cfg.TRP+cfg.TRCD+cfg.TCAS+2)
	}
}

func TestStreamingReachesBusBandwidth(t *testing.T) {
	eng := sim.New()
	cfg := testConfig()
	ch := NewChannel(eng, &cfg, 0)
	const n = 256
	var last uint64
	for i := 0; i < n; i++ {
		ch.Enqueue(Request{Addr: uint64(i) * 64, Bytes: 64, Done: func(now uint64) { last = now }})
	}
	eng.Run()
	// 256 x 64 B at 32 B/cycle is 512 cycles of pure burst. Allow startup
	// and the occasional activate, but sustained throughput must be close
	// to the bus limit (well under 2x).
	ideal := uint64(n * 64 / int(cfg.BytesPerCycle))
	if last > 2*ideal {
		t.Fatalf("streaming took %d cycles, ideal %d; bus not pipelined", last, ideal)
	}
	s := ch.Stats()
	if s.BusBusyCycles != ideal {
		t.Fatalf("bus busy %d cycles, want exactly %d", s.BusBusyCycles, ideal)
	}
}

func TestContentionSlowsBothSources(t *testing.T) {
	run := func(both bool) uint64 {
		eng := sim.New()
		cfg := testConfig()
		ch := NewChannel(eng, &cfg, 0)
		var cpuDone uint64
		for i := 0; i < 64; i++ {
			addr := uint64(i) * 64
			ch.Enqueue(Request{Addr: addr, Bytes: 64, Source: SourceCPU,
				Done: func(now uint64) { cpuDone = now }})
			if both {
				ch.Enqueue(Request{Addr: 1 << 20, Bytes: 64, Source: SourceGPU})
			}
		}
		eng.Run()
		return cpuDone
	}
	alone, shared := run(false), run(true)
	if shared <= alone {
		t.Fatalf("CPU finished at %d with GPU traffic vs %d alone; expected contention", shared, alone)
	}
}

func TestCPUPriority(t *testing.T) {
	finish := func(prio bool) uint64 {
		eng := sim.New()
		cfg := testConfig()
		cfg.CPUPriority = prio
		ch := NewChannel(eng, &cfg, 0)
		// Occupy the channel first so everything below really queues.
		ch.Enqueue(Request{Addr: 0, Bytes: 64, Source: SourceGPU})
		var cpuDone uint64
		// Stay within the scheduling window so priority is observable.
		for i := 0; i < schedWindow/2; i++ {
			ch.Enqueue(Request{Addr: uint64(i+1) << 20, Bytes: 64, Source: SourceGPU})
		}
		ch.Enqueue(Request{Addr: 1 << 30, Bytes: 64, Source: SourceCPU,
			Done: func(now uint64) { cpuDone = now }})
		eng.Run()
		return cpuDone
	}
	withPrio, without := finish(true), finish(false)
	if withPrio >= without {
		t.Fatalf("CPU with priority done at %d, without %d; priority had no effect", withPrio, without)
	}
}

func TestEnergyAccounting(t *testing.T) {
	eng := sim.New()
	cfg := testConfig()
	ch := NewChannel(eng, &cfg, 0)
	ch.Enqueue(Request{Addr: 0, Bytes: 64})               // read: activate + 64B
	ch.Enqueue(Request{Addr: 64, Bytes: 64, Write: true}) // write, row hit
	eng.Run()
	s := ch.Stats()
	want := 100.0 + 64*8*1 + 64*8*2
	if s.DynamicPJ != want {
		t.Fatalf("dynamic energy %.1f pJ, want %.1f", s.DynamicPJ, want)
	}
}

func TestTierStatsAndStatic(t *testing.T) {
	eng := sim.New()
	cfg := testConfig()
	cfg.Channels = 4
	cfg.StaticPJPerCycle = 10
	tier, err := NewTier(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, ch := range tier.Channels {
		ch.Enqueue(Request{Addr: uint64(i) * 64, Bytes: 64})
	}
	eng.Run()
	s := tier.Stats()
	if s.Reads != 4 {
		t.Fatalf("tier reads %d, want 4", s.Reads)
	}
	if got := tier.StaticPJ(100); got != 100*10*4 {
		t.Fatalf("static energy %.0f, want %d", got, 100*10*4)
	}
}

func TestDefaultBytes(t *testing.T) {
	eng := sim.New()
	cfg := testConfig()
	ch := NewChannel(eng, &cfg, 0)
	ch.Enqueue(Request{Addr: 0})
	eng.Run()
	if s := ch.Stats(); s.BytesRead != 64 {
		t.Fatalf("default request size read %d bytes, want 64", s.BytesRead)
	}
}

// Property: completion time is always at least arrival + minimal service,
// and per-source byte counters always sum to the totals.
func TestPropertyConservation(t *testing.T) {
	f := func(addrs []uint32, writes []bool) bool {
		eng := sim.New()
		cfg := testConfig()
		ch := NewChannel(eng, &cfg, 0)
		n := len(addrs)
		if n > 200 {
			n = 200
		}
		for i := 0; i < n; i++ {
			src := SourceCPU
			if i%3 == 0 {
				src = SourceGPU
			}
			w := i < len(writes) && writes[i]
			ch.Enqueue(Request{Addr: uint64(addrs[i]), Bytes: 64, Write: w, Source: src})
		}
		eng.Run()
		s := ch.Stats()
		if s.Reads+s.Writes != uint64(n) {
			return false
		}
		if s.BytesBySource[0]+s.BytesBySource[1] != s.BytesRead+s.BytesWritten {
			return false
		}
		return s.RowHits+s.RowMisses == uint64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestFRFCFSOrder drives one channel with a queue deeper than the
// scheduling window and checks every request's issue position and
// completion tick. Request i (0..63) arrives at tick 32*(i/8) and maps to
// bank 3i mod 4, row (i/8) mod 3; it is background (Lo) when i mod 5 is 4
// and from the CPU when i mod 3 is 0, and the channel has CPUPriority.
// The queue peaks at 21 waiting requests, so the window's edge decides
// picks (request 51 leaves from index 15), and request 29 is issued by
// the starvation bound at tick 310. The expectation was stepped through
// from the rules in pick and service — rank, window, starvation, then
// row state, bank activate spacing and bus serialization — separately
// from this package's code. Completions are in issue order, because the
// bus serializes bursts.
func TestFRFCFSOrder(t *testing.T) {
	want := [64][2]uint64{ // {request, completion tick}, in issue order
		{0, 22}, {3, 24}, {6, 26}, {2, 28}, {7, 30}, {1, 32}, {5, 34}, {4, 36},
		{12, 66}, {15, 68}, {8, 70}, {11, 72}, {10, 74}, {13, 76}, {9, 78}, {14, 80},
		{18, 110}, {21, 112}, {17, 114}, {22, 116}, {16, 118}, {20, 120}, {23, 122}, {19, 124},
		{27, 154}, {30, 156}, {26, 158}, {33, 160}, {36, 162}, {31, 164}, {32, 166}, {37, 168},
		{25, 198}, {42, 200}, {45, 228}, {48, 230}, {51, 232}, {28, 234}, {41, 236}, {46, 238},
		{52, 240}, {55, 242}, {35, 272}, {57, 274}, {38, 276}, {60, 278}, {56, 280}, {58, 282},
		{63, 284}, {61, 286}, {62, 288}, {40, 310}, {43, 314}, {47, 316}, {50, 318}, {53, 320},
		{54, 322}, {24, 340}, {29, 342}, {39, 346}, {49, 348}, {59, 350}, {34, 352}, {44, 370},
	}
	eng := sim.New()
	cfg := testConfig()
	cfg.CPUPriority = true
	ch := NewChannel(eng, &cfg, 0)
	var got [][2]uint64
	done := func(i, now uint64) { got = append(got, [2]uint64{i, now}) }
	enqueueBatch := func(batch, _ uint64) {
		for i := 8 * batch; i < 8*batch+8; i++ {
			row, bank := (i/8)%3, (3*i)%4
			src := SourceGPU
			if i%3 == 0 {
				src = SourceCPU
			}
			ch.Enqueue(Request{
				Addr: (row*uint64(cfg.BanksPerChannel) + bank) * cfg.RowBytes, Bytes: 64,
				Source: src, Lo: i%5 == 4, DoneCtx: done, Ctx: i,
			})
		}
	}
	for batch := uint64(0); batch < 8; batch++ {
		eng.ScheduleCtx(32*batch, enqueueBatch, batch)
	}
	eng.Run()
	if len(got) != len(want) {
		t.Fatalf("%d requests completed, want %d", len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("issue %d: request %d done at %d, want request %d at %d",
				k, got[k][0], got[k][1], want[k][0], want[k][1])
		}
	}
	if s := ch.Stats(); s.RowHits != 32 || s.RowMisses != 32 {
		t.Fatalf("row hits/misses %d/%d, want 32/32", s.RowHits, s.RowMisses)
	}
}

// TestChannelSteadyStateAllocs checks that a channel with a standing
// backlog allocates nothing once warm: every dequeue shifts within the
// window slice, the backlog's chunks cycle through the channel's pool,
// and completions go through the engine without allocating. The Done
// row sends every request in closure form, whose slot slab must stop
// growing at the peak number of requests in flight and be all free once
// the channel drains.
func TestChannelSteadyStateAllocs(t *testing.T) {
	for _, closures := range []bool{false, true} {
		name := "DoneCtx"
		if closures {
			name = "Done"
		}
		t.Run(name, func(t *testing.T) {
			eng := sim.New()
			cfg := testConfig()
			ch := NewChannel(eng, &cfg, 0)
			var completed, addr uint64
			done := func(_, _ uint64) { completed++ }
			doneAt := func(uint64) { completed++ }
			// Each round enqueues 8 requests but runs only long enough to
			// issue about 5, and then until at most 48 wait, so the
			// requests past the window's end wait in backlog chunks.
			round := func() {
				for i := 0; i < 8; i++ {
					r := Request{Addr: addr, Bytes: 64, Write: i&1 == 1, Source: Source(i & 1), Lo: i%4 == 3}
					if closures {
						r.Done = doneAt
					} else {
						r.DoneCtx = done
					}
					ch.Enqueue(r)
					addr += 768 // walks banks and rows: a mix of hits and conflicts
				}
				eng.RunUntil(eng.Now() + 12)
				for ch.QueueLen() > 48 {
					eng.RunUntil(eng.Now() + 12)
				}
			}
			for i := 0; i < 200; i++ {
				round()
			}
			warm, warmChunks, before := cap(ch.win), ch.pool.chunks, completed
			if warmChunks == 0 {
				t.Fatal("the backlog never took a chunk")
			}
			slots := func() int {
				if ch.dones == nil {
					return 0
				}
				return len(ch.dones.slots)
			}
			warmSlots := slots()
			if n := testing.AllocsPerRun(500, round); n != 0 {
				t.Fatalf("steady state allocates %.1f per round, want 0", n)
			}
			if cap(ch.win) != warm || ch.pool.chunks != warmChunks {
				t.Fatalf("window capacity went from %d to %d and backlog chunks from %d to %d under a bounded backlog",
					warm, cap(ch.win), warmChunks, ch.pool.chunks)
			}
			if completed-before < 2000 {
				t.Fatalf("%d requests completed in 501 rounds, want the backlog to keep moving", completed-before)
			}
			if slots() != warmSlots {
				t.Fatalf("Done slots grew from %d to %d under a bounded backlog", warmSlots, slots())
			}
			eng.Run()
			if closures {
				if warmSlots == 0 {
					t.Fatal("no Done closure was parked in a slot")
				}
				free := 0
				for i := ch.dones.free; i >= 0; i = ch.dones.slots[i].next {
					free++
				}
				if free != warmSlots {
					t.Fatalf("%d of %d Done slots free after the channel drained", free, warmSlots)
				}
			}
		})
	}
}

// TestTierPoolSharesChunks has the two channels of a tier take turns
// holding a 500-deep backlog. The backlog chunks the first turn takes
// go back to the tier's pool as its channel drains, so the later turns,
// on either channel, allocate nothing: the tier holds the chunks of one
// backlog, not of two.
func TestTierPoolSharesChunks(t *testing.T) {
	const depth = 500
	eng := sim.New()
	cfg := testConfig()
	cfg.Channels = 2
	tier, err := NewTier(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := func(_, _ uint64) {}
	var addr uint64
	turn := func(ch *Channel) {
		for i := 0; i < depth; i++ {
			ch.Enqueue(Request{Addr: addr, Bytes: 64, Write: i%5 == 0, DoneCtx: done})
			addr += 832
		}
		if ch.QueueLen() != depth {
			t.Fatalf("%d requests waiting, want %d", ch.QueueLen(), depth)
		}
		eng.Run()
	}
	for _, ch := range tier.Channels { // allocate both windows
		ch.Enqueue(Request{DoneCtx: done})
	}
	eng.Run()
	turn(tier.Channels[0])
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for k := 0; k < 4; k++ {
		turn(tier.Channels[(k+1)%2])
	}
	runtime.ReadMemStats(&m1)
	if got, chunkBytes := m1.TotalAlloc-m0.TotalAlloc, uint64(unsafe.Sizeof(chunk{})); got >= chunkBytes {
		t.Fatalf("later turns allocated %d bytes, want less than one %d-byte chunk", got, chunkBytes)
	}
	pool := tier.Channels[0].pool
	if tier.Channels[1].pool != pool {
		t.Fatal("the tier's channels draw from different pools")
	}
	if want := (depth - windowCap + chunkLen - 1) / chunkLen; pool.chunks != want {
		t.Fatalf("pool holds %d chunks, want %d for one %d-deep backlog", pool.chunks, want, depth)
	}
}

// TestDeepBacklogOrder drives a two-channel tier with bursts that stack
// channel 0's backlog at least three chunks deep while channel 1 also
// holds one, out of phase, so chunks are refilled from, returned and
// re-taken across channels mid-run; a starvation bound of 1 000 cycles
// lets FR-FCFS reorder within the window while a backlog waits. A last
// phase holds channel 0 about 12 deep, below schedWindow at the
// window's end. The test hashes every (request, completion tick) pair
// in completion order, across both channels. The golden hash was
// captured when each channel's queue was one unbounded slice; every
// request issues, and completes, as it did there.
func TestDeepBacklogOrder(t *testing.T) {
	eng := sim.New()
	cfg := testConfig()
	cfg.Channels = 2
	cfg.MaxStarve = 1000
	cfg.CPUPriority = true
	tier, err := NewTier(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [16]byte
	n, last := 0, uint64(0)
	complete := func(id, now uint64) {
		binary.LittleEndian.PutUint64(buf[:8], id)
		binary.LittleEndian.PutUint64(buf[8:], now)
		h.Write(buf[:])
		n++
		last = now
	}
	var id uint64
	enqueue := func(ch int) {
		i := id
		id++
		r := Request{
			Addr:  (i*64 + (i/4)*7*cfg.RowBytes) % (1 << 22),
			Bytes: 64 << (i % 3 / 2), Write: i%6 == 1,
			Source: Source(i % 3 % 2), Lo: i%5 == 4,
		}
		if i%7 == 3 {
			r.Done = func(now uint64) { complete(i, now) }
		} else {
			r.DoneCtx, r.Ctx = complete, i
		}
		tier.Channels[ch].Enqueue(r)
	}
	deep := 0 // bursts after which both backlogs stand, channel 0's 3+ chunks deep
	burst := func(b, _ uint64) {
		n0, n1 := 30, 10
		if b%3 == 0 {
			n0 = 330
		}
		if b%2 == 1 {
			n1 = 220
		}
		for k := 0; k < n0 || k < n1; k++ {
			if k < n0 {
				enqueue(0)
			}
			if k < n1 {
				enqueue(1)
			}
		}
		if tier.Channels[0].QueueLen() >= windowCap+3*chunkLen && tier.Channels[1].QueueLen() > windowCap {
			deep++
		}
	}
	for b := uint64(0); b < 12; b++ {
		eng.ScheduleCtx(700*b, burst, b)
	}
	eng.Run()
	// Then hold channel 0 at about 12 waiting requests, so its window
	// slice fills to its end with fewer than schedWindow waiting.
	for k := 0; k < 400; k++ {
		for tier.Channels[0].QueueLen() < 12 {
			enqueue(0)
		}
		eng.RunUntil(eng.Now() + 4)
	}
	eng.Run()
	if deep == 0 {
		t.Fatal("the two backlogs never stood at once")
	}
	if n != 3205 || last != 11388 {
		t.Fatalf("%d requests completed by tick %d, want 3205 by 11388", n, last)
	}
	if got := h.Sum64(); got != 0x4666592a58ece72d {
		t.Fatalf("completion order hash %#x, want 0x4666592a58ece72d", got)
	}
}

// TestDoneFormMatchesDoneCtx runs one request stream over a 4-channel
// tier twice: with every request in DoneCtx form, and with every third
// one in Done (closure) form. Each channel gets the same requests, so
// completions meet at the same ticks and must run in channel (key)
// order whichever form each one takes; each of the first 256 requests
// enqueues a follow-up when it completes, so Done slots are freed and
// reused mid-run. Both runs must log the same (request, tick) sequence.
func TestDoneFormMatchesDoneCtx(t *testing.T) {
	run := func(closures bool) [][2]uint64 {
		eng := sim.New()
		cfg := testConfig()
		cfg.Channels = 4
		tier, err := NewTier(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var got [][2]uint64
		var enqueue func(id uint64)
		complete := func(id, now uint64) {
			got = append(got, [2]uint64{id, now})
			if id < 256 {
				enqueue(id + 128)
			}
		}
		enqueue = func(id uint64) {
			n := id / 4 // same request n on every channel
			r := Request{
				Addr: n * 832, Bytes: 64 << (n % 2), Write: n%5 == 0,
				Source: Source(n & 1), Lo: n%7 == 6,
			}
			if closures && id%3 == 0 {
				r.Done = func(now uint64) { complete(id, now) }
			} else {
				r.DoneCtx, r.Ctx = complete, id
			}
			tier.Channels[id%4].Enqueue(r)
		}
		for batch := uint64(0); batch < 4; batch++ {
			eng.ScheduleCtx(40*batch, func(batch, _ uint64) {
				for id := 32 * batch; id < 32*batch+32; id++ {
					enqueue(id)
				}
			}, batch)
		}
		eng.Run()
		return got
	}
	want, got := run(false), run(true)
	if len(want) != 384 {
		t.Fatalf("%d requests completed, want 384", len(want))
	}
	sameTick := 0
	for k := 1; k < len(want); k++ {
		if want[k][1] == want[k-1][1] {
			sameTick++
		}
	}
	if sameTick < 256 {
		t.Fatalf("only %d completions shared a tick with the previous one; the stream must test same-tick order", sameTick)
	}
	if len(got) != len(want) {
		t.Fatalf("mixed forms completed %d requests, DoneCtx alone %d", len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("completion %d: request %d at %d with Done closures, request %d at %d with DoneCtx alone",
				k, got[k][0], got[k][1], want[k][0], want[k][1])
		}
	}
}

// TestQueuedSize pins the queue entry at 48 bytes. Channel queues run
// hundreds of requests deep under contention, so a field added to
// queued shows up here first.
func TestQueuedSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit targets")
	}
	if got := unsafe.Sizeof(queued{}); got != 48 {
		t.Fatalf("queued is %d bytes, want 48", got)
	}
}

// TestChannelSize pins Channel at 368 bytes, in the 384-byte allocation
// size class: a field added to it shows up here first, and one that
// takes it past 384 moves every channel to a larger class.
func TestChannelSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit targets")
	}
	if got := unsafe.Sizeof(Channel{}); got != 368 {
		t.Fatalf("Channel is %d bytes, want 368", got)
	}
}

func BenchmarkChannelThroughput(b *testing.B) {
	eng := sim.New()
	cfg := testConfig()
	ch := NewChannel(eng, &cfg, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Enqueue(Request{Addr: uint64(i) * 64, Bytes: 64})
		if i%64 == 63 {
			eng.Run()
		}
	}
	eng.Run()
}

// BenchmarkChannelBacklog holds one HBM2E channel at a standing backlog
// of about 600 requests, the depth the fast tier's channels reach in a
// C1 run (BenchmarkChannelThroughput's queue never passes 64). One op
// enqueues a request and runs the channel until the backlog is back
// to 600, which takes one issue on average. The stream mixes row hits
// with bank and row conflicts, writes, both sources and background
// traffic.
func BenchmarkChannelBacklog(b *testing.B) {
	const backlog = 600
	eng := sim.New()
	cfg := HBM2E()
	ch := NewChannel(eng, &cfg, 0)
	var addr uint64
	done := func(_, _ uint64) {}
	enqueue := func(i int) {
		addr += 64
		if i&3 == 3 {
			addr += cfg.RowBytes * 7
		}
		ch.Enqueue(Request{
			Addr: addr, Bytes: 64, Write: i&7 == 0, Source: Source(i & 1),
			Lo: i%8 == 5, DoneCtx: done,
		})
	}
	for i := 0; i < backlog; i++ {
		enqueue(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enqueue(i)
		for ch.QueueLen() > backlog {
			eng.RunUntil(eng.Now() + 1)
		}
	}
}

// BenchmarkTierBacklog runs one HBM2E tier whose 16 channels hold
// standing backlogs that rise and fall out of phase: every 64 ticks
// each channel is topped up to a depth that follows a triangle wave
// between 0 and 640 requests, channel c's wave 1/16 of a period behind
// channel c-1's. One op is one period of 8 192 ticks, so a single op
// already returns chunks to the tier's pool and takes them again on
// other channels. It reports ns per request and the pool's peak KB,
// which follows the tier's simultaneous backlog rather than the sum of
// the channels' peaks.
func BenchmarkTierBacklog(b *testing.B) {
	const (
		steps    = 128 // per period
		stepLen  = 64  // ticks
		perStep  = 10  // depth change per step
		channels = 16
	)
	eng := sim.New()
	tier, err := NewTier(eng, HBM2E())
	if err != nil {
		b.Fatal(err)
	}
	rowBytes := tier.Cfg.RowBytes
	var addrs [channels]uint64
	done := func(_, _ uint64) {}
	reqs := 0
	period := func() {
		for s := 0; s < steps; s++ {
			for c, ch := range tier.Channels {
				phase := (s + c*steps/channels) % steps
				target := perStep * min(phase, steps-phase)
				for i := ch.QueueLen(); i < target; i++ {
					a := &addrs[c]
					*a += 64
					if i&3 == 3 {
						*a += rowBytes * 7
					}
					ch.Enqueue(Request{
						Addr: *a, Bytes: 64, Write: i&7 == 0, Source: Source(i & 1),
						Lo: i%8 == 5, DoneCtx: done,
					})
					reqs++
				}
			}
			eng.RunUntil(eng.Now() + stepLen)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		period()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(reqs), "ns/req")
	pool := tier.Channels[0].pool
	b.ReportMetric(float64(uintptr(pool.chunks)*unsafe.Sizeof(chunk{}))/1024, "pool-KB")
}

// TestIssueEventsOnlyWhenIssuing feeds a channel a backlog whose
// arrivals land while the bus is reserved beyond the lookahead, and
// checks the one-pending-issue-event invariant by counting events: every
// issue event issues at least one request, so the engine runs at most one
// completion and one issue event per request. The FR-FCFS order and
// timing are pinned as in TestFRFCFSOrder.
func TestIssueEventsOnlyWhenIssuing(t *testing.T) {
	const n = 32
	want := [n][2]uint64{ // {request, completion tick}, in issue order
		{0, 28}, {1, 36}, {2, 44}, {12, 52}, {14, 60}, {3, 68}, {15, 76}, {4, 84},
		{16, 92}, {5, 100}, {17, 108}, {26, 116}, {7, 124}, {19, 132}, {28, 140}, {29, 148},
		{31, 156}, {8, 170}, {9, 178}, {21, 186}, {10, 194}, {22, 202}, {11, 210}, {23, 218},
		{18, 232}, {30, 240}, {6, 248}, {13, 256}, {20, 264}, {24, 294}, {25, 302}, {27, 310},
	}
	eng := sim.New()
	cfg := testConfig()
	ch := NewChannel(eng, &cfg, 0)
	var got [][2]uint64
	done := func(i, now uint64) { got = append(got, [2]uint64{i, now}) }
	for i := uint64(0); i < n; i++ {
		// One arrival per tick; 256 B bursts hold the bus 8 ticks each,
		// so from the second request on the bus is reserved past the
		// lookahead when a request arrives.
		eng.RunUntil(i)
		row, bank := (i/4)%3, (5*i)%4
		src := SourceGPU
		if i%3 == 0 {
			src = SourceCPU
		}
		ch.Enqueue(Request{
			Addr: (row*uint64(cfg.BanksPerChannel) + bank) * cfg.RowBytes, Bytes: 256,
			Source: src, Lo: i%7 == 6, DoneCtx: done, Ctx: i,
		})
	}
	eng.Run()
	if len(got) != n {
		t.Fatalf("%d requests completed, want %d", len(got), n)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("issue %d: request %d done at %d, want request %d at %d",
				k, got[k][0], got[k][1], want[k][0], want[k][1])
		}
	}
	if steps := eng.Steps(); steps > 2*n {
		t.Fatalf("%d events for %d requests, want at most %d (one completion and one issue event each)",
			steps, n, 2*n)
	}
}

package experiments

import (
	"fmt"
	"strings"

	"github.com/hydrogen-sim/hydrogen/internal/system"
	"github.com/hydrogen-sim/hydrogen/internal/workloads"
)

// Table1 renders the simulated system configuration (paper Table I) as
// derived from the given base config — useful to verify what a quick or
// paper-scale run actually models.
func Table1(base system.Config) *Table {
	t := &Table{Title: "Table I: system configuration", Columns: []string{"component", "configuration"}}
	t.Add("CPU", fmt.Sprintf("%d cores, %d-wide, MLP %d", base.Cores, base.CPU.BaseIPC, base.CPU.MLP))
	t.Add("CPU L2", fmt.Sprintf("%d-way, %d kB per core, %d-cycle latency, LRU",
		base.CPU.L2.Assoc, base.CPU.L2.SizeBytes>>10, base.CPU.L2.Latency))
	t.Add("GPU", fmt.Sprintf("%d subslices x 16 EUs, window %d per subslice",
		base.GPU.Subslices, base.GPU.Window))
	t.Add("GPU L1", fmt.Sprintf("%d kB per subslice", base.GPU.L1.SizeBytes>>10))
	t.Add("Shared LLC", fmt.Sprintf("%d-way, %d kB shared, %d-cycle latency, LRU",
		base.LLC.Assoc, base.LLC.SizeBytes>>10, base.LLC.Latency))
	t.Add("Fast memory", fmt.Sprintf("%s, %d channels x %d banks; RCD-CAS-RP: %d-%d-%d; %d B/cycle/channel",
		base.Fast.Name, base.Fast.Channels, base.Fast.BanksPerChannel,
		base.Fast.TRCD, base.Fast.TCAS, base.Fast.TRP, base.Fast.BytesPerCycle))
	t.Add("Slow memory", fmt.Sprintf("%s, %d channels x %d banks; RCD-CAS-RP: %d-%d-%d; %d B/cycle/channel",
		base.Slow.Name, base.Slow.Channels, base.Slow.BanksPerChannel,
		base.Slow.TRCD, base.Slow.TCAS, base.Slow.TRP, base.Slow.BytesPerCycle))
	t.Add("Hybrid memory", fmt.Sprintf("%d MB fast tier, %d B blocks, %d-way sets, %d kB remap cache",
		base.Hybrid.FastCapacityBytes>>20, base.Env().BlockBytes, base.Hybrid.Assoc,
		base.Hybrid.RemapCacheBytes>>10))
	t.Add("Energy", fmt.Sprintf("fast %.1f pJ/bit, slow %.1f pJ/bit, ACT/PRE %.0f nJ",
		base.Fast.ReadPJPerBit, base.Slow.ReadPJPerBit, base.Fast.ActPrePJ/1000))
	return t
}

// Table2 renders the workload combinations (paper Table II).
func Table2() *Table {
	t := &Table{Title: "Table II: workload combinations",
		Columns: []string{"combo", "CPU workloads", "GPU workload"}}
	for _, c := range workloads.Combos {
		t.Add(c.ID, strings.Join(c.CPU, "-"), c.GPU)
	}
	return t
}

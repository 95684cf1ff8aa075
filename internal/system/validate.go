package system

import "fmt"

// Validate reports whether cfg describes a machine New can build: one
// CPU profile per core and the CPU shape when the run has cores, the
// GPU shape when it has a GPU profile, and the LLC and hybrid-memory
// shapes always. A bad shape is an error here, not a panic or a
// silently missing processor later.
func (c *Config) Validate() error {
	if c.Cores < 0 {
		return fmt.Errorf("system: %d cores", c.Cores)
	}
	if c.Cores > 0 {
		if len(c.CPUProfiles) != c.Cores {
			return fmt.Errorf("system: %d cores but %d CPU profiles", c.Cores, len(c.CPUProfiles))
		}
		if c.CPU.BaseIPC < 1 || c.CPU.MLP < 1 {
			return fmt.Errorf("system: CPU base IPC %d and MLP %d must be at least 1", c.CPU.BaseIPC, c.CPU.MLP)
		}
		if err := c.CPU.L2.Validate(); err != nil {
			return err
		}
	}
	if c.GPUProfile != "" {
		g := c.GPU
		if g.Subslices < 1 || g.IssuePerCyc < 1 || g.Window < 1 {
			return fmt.Errorf("system: GPU subslices %d, issue width %d and window %d must be at least 1",
				g.Subslices, g.IssuePerCyc, g.Window)
		}
		if err := g.L1.Validate(); err != nil {
			return err
		}
	}
	if err := c.LLC.Validate(); err != nil {
		return err
	}
	return c.Hybrid.Validate()
}

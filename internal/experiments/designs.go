package experiments

import (
	"repro/internal/btb"
	"repro/internal/core"
	"repro/internal/multilevel"
	"repro/internal/pdede"
	"repro/internal/predictor"
	"repro/internal/shotgun"
)

// Canonical design names used across experiments and reports.
const (
	NameBaseline    = "baseline-4K"
	NameBaseline8K  = "baseline-8K"
	NameDedup       = "dedup-only"
	NamePartition   = "partition-only"
	NamePDede       = "pdede-default"
	NameMultiTarget = "pdede-multi-target"
	NameMultiEntry  = "pdede-multi-entry"
	NamePerfect     = "perfect-btb"
	NameShotgun     = "shotgun"
)

// BaselineDesign builds the conventional BTB at the given entry count.
func BaselineDesign(name string, entries int) Design {
	return Design{Name: name, New: func() (btb.TargetPredictor, error) {
		return btb.NewBaseline(btb.BaselineConfig{Entries: entries})
	}}
}

// PDedeDesign builds a PDede configuration.
func PDedeDesign(name string, cfg pdede.Config) Design {
	return Design{Name: name, New: func() (btb.TargetPredictor, error) {
		return pdede.New(cfg)
	}}
}

// PerfectDesign builds the unbounded perfect BTB (every decoded branch
// hits with the correct target).
func PerfectDesign() Design {
	return Design{Name: NamePerfect, New: func() (btb.TargetPredictor, error) {
		return btb.NewPerfect(), nil
	}}
}

// DiffDesigns is the differential-oracle registry: every concrete design
// the experiments drive, including the ablation intermediates, the two
// level hierarchy and the unbounded Perfect model. `make check-deep` runs
// each of these in lockstep with its reference oracle.
// TestDiffDesignsCoverEveryDesign cross-checks the list against the design
// packages: every exported type there that declares Lookup must be built
// here and implement btb.Auditable, so a new design fails that test until
// it is registered.
func DiffDesigns() []Design {
	partitionOnly := pdede.DefaultConfig()
	partitionOnly.DisableDelta = true
	ds := []Design{
		BaselineDesign(NameBaseline, 4096),
		BaselineDesign(NameBaseline8K, 8192),
		PDedeDesign(NamePartition, partitionOnly),
		PDedeDesign(NamePDede, pdede.DefaultConfig()),
		PDedeDesign(NameMultiTarget, pdede.MultiTargetConfig()),
		PDedeDesign(NameMultiEntry, pdede.MultiEntryConfig()),
		TwoLevelDesign("2L-pdede-me", 256, true),
		PerfectDesign(),
	}
	for _, d := range AblationDesigns() {
		if d.Name == NameDedup {
			ds = append(ds, d)
		}
	}
	for _, d := range ShotgunDesigns() {
		if d.Name == NameShotgun {
			ds = append(ds, d)
		}
	}
	return ds
}

// DesignByName resolves a design from the differential-oracle registry by
// its registered name. pdede-serve uses it to select the served design
// from a flag; ok is false for unknown names.
func DesignByName(name string) (d Design, ok bool) {
	for _, cand := range DiffDesigns() {
		if cand.Name == name {
			return cand, true
		}
	}
	return Design{}, false
}

// StandardDesigns returns the Figure 10 comparison set.
func StandardDesigns() []Design {
	return []Design{
		BaselineDesign(NameBaseline, 4096),
		PDedeDesign(NamePDede, pdede.DefaultConfig()),
		PDedeDesign(NameMultiTarget, pdede.MultiTargetConfig()),
		PDedeDesign(NameMultiEntry, pdede.MultiEntryConfig()),
	}
}

// AblationDesigns returns the Figure 11a decomposition set, in cumulative
// order: baseline → dedup-only → partitioned → +delta → +MT → +ME.
func AblationDesigns() []Design {
	partitionOnly := pdede.DefaultConfig()
	partitionOnly.DisableDelta = true
	return []Design{
		BaselineDesign(NameBaseline, 4096),
		{Name: NameDedup, New: func() (btb.TargetPredictor, error) {
			return btb.NewDedupBTB(btb.DedupBTBConfig{})
		}},
		PDedeDesign(NamePartition, partitionOnly),
		PDedeDesign(NamePDede, pdede.DefaultConfig()),
		PDedeDesign(NameMultiTarget, pdede.MultiTargetConfig()),
		PDedeDesign(NameMultiEntry, pdede.MultiEntryConfig()),
	}
}

// ShotgunDesigns returns the §5.10 comparison set.
func ShotgunDesigns() []Design {
	return []Design{
		BaselineDesign(NameBaseline, 4096),
		{Name: NameShotgun, New: func() (btb.TargetPredictor, error) {
			return shotgun.New(shotgun.DefaultConfig())
		}},
		{Name: NameShotgun + "-45KB", New: func() (btb.TargetPredictor, error) {
			return shotgun.New(shotgun.ScaledConfig(45))
		}},
		PDedeDesign(NameMultiEntry, pdede.MultiEntryConfig()),
	}
}

// TwoLevelDesign builds an L0+L1 hierarchy; pdedeL1 selects PDede-ME as L1
// instead of a conventional 4K BTB.
func TwoLevelDesign(name string, l0Entries int, pdedeL1 bool) Design {
	return Design{Name: name, New: func() (btb.TargetPredictor, error) {
		l0, err := btb.NewBaseline(btb.BaselineConfig{Entries: l0Entries, Ways: 4})
		if err != nil {
			return nil, err
		}
		var l1 btb.TargetPredictor
		if pdedeL1 {
			l1, err = pdede.New(pdede.MultiEntryConfig())
		} else {
			l1, err = btb.NewBaseline(btb.BaselineConfig{Entries: 4096})
		}
		if err != nil {
			return nil, err
		}
		return multilevel.New(l0, l1)
	}}
}

// WithPerfectDirection wraps a design with the §5.5 perfect direction
// predictor.
func WithPerfectDirection(d Design) Design {
	prev := d.Mod
	d.Name += "+perfdir"
	d.Mod = func(c *core.Config) {
		if prev != nil {
			prev(c)
		}
		c.PerfectDirection = true
	}
	return d
}

// WithITTAGE wraps a design with a 64KB ITTAGE serving indirect branches
// (§5.6); indirect targets no longer allocate in the BTB.
func WithITTAGE(d Design) Design {
	prev := d.Mod
	d.Name += "+ittage"
	d.Mod = func(c *core.Config) {
		if prev != nil {
			prev(c)
		}
		it, err := predictor.NewITTAGE(predictor.Default64KBConfig())
		if err != nil {
			panic(err) // static config; cannot fail
		}
		c.ITTAGE = it
	}
	return d
}

// WithPipeline wraps a design to run under the event-timestamped pipeline
// core model instead of the analytic one (ext-models).
func WithPipeline(d Design) Design {
	prev := d.Mod
	d.Name += "+pipe"
	d.Mod = func(c *core.Config) {
		if prev != nil {
			prev(c)
		}
		c.UsePipeline = true
	}
	return d
}

// WithReturnsInBTB wraps a design to drop the RAS and store returns in the
// BTB (§5.7). The predictor must be configured with StoreReturns itself.
func WithReturnsInBTB(d Design) Design {
	prev := d.Mod
	d.Name += "+rets"
	d.Mod = func(c *core.Config) {
		if prev != nil {
			prev(c)
		}
		c.StoreReturnsInBTB = true
	}
	return d
}

// WithParams wraps a design with alternative core parameters (FTQ sweeps,
// §5.11 deeper pipelines).
func WithParams(d Design, name string, params core.Params) Design {
	prev := d.Mod
	d.Name = name
	d.Mod = func(c *core.Config) {
		if prev != nil {
			prev(c)
		}
		c.Params = params
	}
	return d
}

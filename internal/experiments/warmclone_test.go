package experiments

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/pdede"
	"repro/internal/trace"
	"repro/internal/workload"
)

// warmCloneBase returns the canonical base config the suite runner warms
// with, scaled down for test speed. AuditEvery is set so the periodic
// btb.Auditable deep checks run on both paths at the same cadence — the
// differential-oracle guarantee that a warm run is not just numerically
// but structurally equivalent to a cold run. The measure window ends before
// the trace does, at an odd instruction count, so the cold side's two-stage
// core.RunContext stops mid-batch while its frontend goroutine is reading
// ahead, and the shared pass's log ends on that same record.
func warmCloneBase(app workload.Config) core.Config {
	return core.Config{
		Params:        core.Icelake(),
		BackendCPI:    app.BackendCPI,
		WarmupInstrs:  40_000,
		MeasureInstrs: 50_001,
		AuditEvery:    2048,
	}
}

// warmCloneApps returns the traces the oracle tests replay: a synthetic
// program (name, seed) and a catalog application, each long enough for the
// measure window to fill before the trace ends.
func warmCloneApps(t *testing.T, name string, seed uint64) []appTrace {
	t.Helper()
	synth := workload.Default()
	synth.Name = name
	synth.Seed = seed
	catalog, ok := workload.CatalogByName("Server-oltp-primary")
	if !ok {
		t.Fatal("no catalog app Server-oltp-primary")
	}
	var out []appTrace
	for i, app := range []workload.Config{synth, catalog} {
		_, src, err := workload.Build(app, 120_000)
		if err != nil {
			t.Fatal(err)
		}
		at := appTrace{app: app, src: src}
		if i > 0 {
			at.prefix = app.Name + "/"
		}
		out = append(out, at)
	}
	return out
}

// appTrace is one app the oracle tests replay. prefix starts the names of
// its subtests: empty for the synthetic program, whose subtests are named
// by design alone.
type appTrace struct {
	app    workload.Config
	src    *trace.Memory
	prefix string
}

// TestWarmCloneOracle is the warm-state acceptance test: for every design
// in the registry, a run that replays the shared frontend log through the
// design-private back half must produce a Result bit-identical to a cold
// run of the same (app, design) pair. Result holds only value fields, so
// == is a full bit comparison.
func TestWarmCloneOracle(t *testing.T) {
	for _, at := range warmCloneApps(t, "warm-oracle", 41) {
		app, src := at.app, at.src
		base := warmCloneBase(app)
		warm, err := core.WarmupContext(context.Background(), base, src)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range DiffDesigns() {
			t.Run(at.prefix+d.Name, func(t *testing.T) {
				coldCfg := base
				tp, err := d.New()
				if err != nil {
					t.Fatal(err)
				}
				coldCfg.BTB = tp
				if d.Mod != nil {
					d.Mod(&coldCfg)
				}
				cold, err := core.RunContext(context.Background(), coldCfg, src)
				if err != nil {
					t.Fatal(err)
				}

				warmCfg := base
				tp2, err := d.New()
				if err != nil {
					t.Fatal(err)
				}
				warmCfg.BTB = tp2
				if d.Mod != nil {
					d.Mod(&warmCfg)
				}
				if err := warm.Compatible(warmCfg); err != nil {
					t.Fatalf("registry design incompatible with warm clone: %v", err)
				}
				got, err := core.RunWarmContext(context.Background(), warmCfg, src, warm)
				if err != nil {
					t.Fatal(err)
				}
				if *got != *cold {
					t.Errorf("warm-clone run diverges from cold run:\nwarm: %+v\ncold: %+v", got, cold)
				}
			})
		}
	}
}

// TestWarmCloneOracleModdedConfigs exercises the compatibility gate's edge
// configs explicitly: perfect direction, ITTAGE-served indirects, returns
// routed through the BTB, other FTQ sizes, a scaled core and the pipeline
// model all reuse the shared warm state (their frontend traffic is
// design-independent), while another frontend geometry or another warmup
// or measure window must be refused.
func TestWarmCloneOracleModdedConfigs(t *testing.T) {
	ftq := func(n int) core.Params {
		p := core.Icelake()
		p.FetchQueueEntries = n
		return p
	}
	compatible := []Design{
		WithPerfectDirection(BaselineDesign("perfect-dir", 1024)),
		WithITTAGE(BaselineDesign("ittage", 1024)),
		WithReturnsInBTB(BaselineDesign("returns-in-btb", 1024)),
		WithParams(BaselineDesign("", 1024), "ftq16", ftq(16)),
		WithParams(PDedeDesign("", pdede.MultiEntryConfig()), "scaled-x2", core.Icelake().Scale(2)),
		WithPipeline(BaselineDesign("baseline", 1024)),
		WithPipeline(WithParams(PDedeDesign("", pdede.MultiEntryConfig()), "ftq128", ftq(128))),
		WithPipeline(WithITTAGE(BaselineDesign("ittage", 1024))),
	}
	var base core.Config
	var warm *core.WarmState
	for _, at := range warmCloneApps(t, "warm-modded", 43) {
		app, src := at.app, at.src
		base = warmCloneBase(app)
		var err error
		if warm, err = core.WarmupContext(context.Background(), base, src); err != nil {
			t.Fatal(err)
		}
		for _, d := range compatible {
			t.Run(at.prefix+d.Name, func(t *testing.T) {
				mk := func() core.Config {
					cfg := base
					tp, err := d.New()
					if err != nil {
						t.Fatal(err)
					}
					cfg.BTB = tp
					if d.Mod != nil {
						d.Mod(&cfg)
					}
					return cfg
				}
				cold, err := core.RunContext(context.Background(), mk(), src)
				if err != nil {
					t.Fatal(err)
				}
				warmCfg := mk()
				if err := warm.Compatible(warmCfg); err != nil {
					t.Fatalf("expected compatible, got %v", err)
				}
				got, err := core.RunWarmContext(context.Background(), warmCfg, src, warm)
				if err != nil {
					t.Fatal(err)
				}
				if *got != *cold {
					t.Errorf("warm-clone run diverges from cold run:\nwarm: %+v\ncold: %+v", got, cold)
				}
			})
		}
	}

	t.Run("incompatible", func(t *testing.T) {
		// The frontend half reads the cache geometry and the RAS depth.
		icache := base
		icache.Params.ICacheBytes *= 2
		if err := warm.Compatible(icache); err == nil {
			t.Error("different ICache size accepted by warm clone")
		}
		l2 := base
		l2.Params.L2Ways /= 2
		if err := warm.Compatible(l2); err == nil {
			t.Error("different L2 associativity accepted by warm clone")
		}
		ras := base
		ras.Params.RASEntries = 8
		if err := warm.Compatible(ras); err == nil {
			t.Error("different RAS depth accepted by warm clone")
		}
		window := base
		window.WarmupInstrs = base.WarmupInstrs / 2
		if err := warm.Compatible(window); err == nil {
			t.Error("different warmup window accepted by warm clone")
		}
		// The shared pass logs the records up to base's window end only.
		measure := base
		measure.MeasureInstrs = base.MeasureInstrs * 2
		if err := warm.Compatible(measure); err == nil {
			t.Error("different measure window accepted by warm clone")
		}
	})
}

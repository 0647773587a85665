package experiments

// Extension experiments: ablations of design choices the paper fixes
// without sweeping (replacement policy, Page/Region table sizing,
// wrong-path pollution) plus the future-work idea the paper sketches in
// §4.3.1 (multiple Last BTBM set/way registers for Multi-Target). These are
// not paper artifacts; they document how sensitive the reproduction is to
// each choice.

import (
	"fmt"
	"io"

	"repro/internal/analysis"
	"repro/internal/btb"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/pdede"
	"repro/internal/workload"
)

// ExtExperiments returns the ablations (kept separate from All() so the
// paper-artifact registry stays 1:1 with the paper).
func ExtExperiments() []Experiment {
	return []Experiment{extRepl(), extTables(), extNTDepth(), extWrongPath(), extModels(), extReuse()}
}

// extReuse — stack-distance profiles predicting BTB miss rates analytically.
func extReuse() Experiment {
	return Experiment{
		ID:    "ext-reuse",
		Title: "Extension: taken-PC reuse-distance profiles vs BTB capacity",
		Paper: "quantifies the capacity argument behind Figure 10 without simulating any BTB",
		Run: func(r *Runner, w io.Writer) error {
			apps := r.SuiteApps()
			if len(apps) > 12 {
				apps = apps[:12] // profiles are O(n log n); a subset suffices
			}
			caps := []int{1024, 2048, 4096, 8192, 16384}
			tb := metrics.NewTable("application", "taken PCs", "LRU miss@1K", "@2K", "@4K", "@8K", "@16K")
			for _, app := range apps {
				_, tr, err := workload.Build(app, r.Opts.TotalInstrs)
				if err != nil {
					return err
				}
				u, err := analysis.ReuseProfile(tr.Open())
				if err != nil {
					return err
				}
				row := []string{app.Name, fmt.Sprint(u.WorkingSet())}
				for _, c := range caps {
					row = append(row, metrics.Pct0(u.MissRateAt(c)))
				}
				tb.AddRow(row...)
			}
			_, err := fmt.Fprint(w, tb)
			return err
		},
	}
}

// extModels — cross-validation of the two core models.
func extModels() Experiment {
	return Experiment{
		ID:    "ext-models",
		Title: "Extension: analytic runahead model vs event-timestamped pipeline model",
		Paper: "internal cross-validation; the paper uses a single in-house cycle-accurate simulator",
		Run: func(r *Runner, w io.Writer) error {
			designs := []Design{
				BaselineDesign(NameBaseline, 4096),
				PDedeDesign(NameMultiEntry, pdede.MultiEntryConfig()),
				WithPipeline(BaselineDesign(NameBaseline, 4096)),
				WithPipeline(PDedeDesign(NameMultiEntry, pdede.MultiEntryConfig())),
			}
			suite, err := r.Run(designs)
			if err != nil {
				return err
			}
			tb := metrics.NewTable("core model", "PDede-ME IPC gain", "MPKI reduction")
			tb.AddRow("analytic runahead",
				metrics.Pct(metrics.GeoMeanSpeedup(suite.Gains(NameMultiEntry, NameBaseline))),
				metrics.Pct0(metrics.Mean(suite.MPKIReductions(NameMultiEntry, NameBaseline))))
			tb.AddRow("event pipeline",
				metrics.Pct(metrics.GeoMeanSpeedup(suite.Gains(NameMultiEntry+"+pipe", NameBaseline+"+pipe"))),
				metrics.Pct0(metrics.Mean(suite.MPKIReductions(NameMultiEntry+"+pipe", NameBaseline+"+pipe"))))
			_, err = fmt.Fprint(w, tb)
			return err
		},
	}
}

// extRepl — replacement-policy ablation for the baseline BTB.
func extRepl() Experiment {
	return Experiment{
		ID:    "ext-repl",
		Title: "Extension: baseline BTB replacement policy (SRRIP vs LRU vs random vs GHRP-lite)",
		Paper: "the paper fixes SRRIP and cites predictive replacement (GHRP) as orthogonal work",
		Run: func(r *Runner, w io.Writer) error {
			mk := func(name string, pol btb.PolicyKind) Design {
				return Design{Name: name, New: func() (btb.TargetPredictor, error) {
					return btb.NewBaseline(btb.BaselineConfig{Entries: 4096, Policy: pol})
				}}
			}
			designs := []Design{
				mk("baseline-srrip", btb.PolicySRRIP),
				mk("baseline-lru", btb.PolicyLRU),
				mk("baseline-random", btb.PolicyRandom),
				mk("baseline-ghrp", btb.PolicyGHRP),
			}
			suite, err := r.Run(designs)
			if err != nil {
				return err
			}
			tb := metrics.NewTable("policy", "mean BTB MPKI", "IPC gain vs srrip")
			for _, d := range []string{"baseline-srrip", "baseline-lru", "baseline-random", "baseline-ghrp"} {
				var mpki []float64
				for _, a := range suite.OK(d) {
					mpki = append(mpki, a.Results[d].BTBMPKI())
				}
				tb.AddRow(d, fmt.Sprintf("%.3f", metrics.Mean(mpki)),
					metrics.Pct(metrics.GeoMeanSpeedup(suite.Gains(d, "baseline-srrip"))))
			}
			_, err = fmt.Fprint(w, tb)
			return err
		},
	}
}

// extTables — Page-BTB and Region-BTB sizing sensitivity.
func extTables() Experiment {
	return Experiment{
		ID:    "ext-tables",
		Title: "Extension: Page-BTB/Region-BTB sizing sensitivity",
		Paper: "the paper fixes 1K page entries and 4 region entries from its Fig 6/7 analysis",
		Run: func(r *Runner, w io.Writer) error {
			type point struct {
				name           string
				pages, regions int
			}
			points := []point{
				{"pages256-regions4", 256, 4},
				{"pages512-regions4", 512, 4},
				{"pages1024-regions2", 1024, 2},
				{"pages1024-regions4", 1024, 4},
				{"pages1024-regions8", 1024, 8},
				{"pages2048-regions4", 2048, 4},
			}
			designs := []Design{BaselineDesign(NameBaseline, 4096)}
			for _, pt := range points {
				cfg := pdede.MultiEntryConfig()
				cfg.PageEntries = pt.pages
				cfg.RegionEntries = pt.regions
				designs = append(designs, PDedeDesign(pt.name, cfg))
			}
			suite, err := r.Run(designs)
			if err != nil {
				return err
			}
			tb := metrics.NewTable("page/region sizing", "IPC gain", "MPKI reduction")
			for _, pt := range points {
				tb.AddRow(pt.name,
					metrics.Pct(metrics.GeoMeanSpeedup(suite.Gains(pt.name, NameBaseline))),
					metrics.Pct0(metrics.Mean(suite.MPKIReductions(pt.name, NameBaseline))))
			}
			_, err = fmt.Fprint(w, tb)
			return err
		},
	}
}

// extNTDepth — multiple Last BTBM set/way registers (§4.3.1 future work).
func extNTDepth() Experiment {
	return Experiment{
		ID:    "ext-ntdepth",
		Title: "Extension: Multi-Target with multiple Last BTBM set/way registers",
		Paper: "sketched as future work in §4.3.1 (\"multiple Last BTBM set and way registers\")",
		Run: func(r *Runner, w io.Writer) error {
			designs := []Design{BaselineDesign(NameBaseline, 4096)}
			depths := []int{1, 2, 4}
			for _, d := range depths {
				cfg := pdede.MultiTargetConfig()
				cfg.NTLastRegisters = d
				designs = append(designs, PDedeDesign(fmt.Sprintf("pdede-mt-ring%d", d), cfg))
			}
			suite, err := r.Run(designs)
			if err != nil {
				return err
			}
			tb := metrics.NewTable("Last-register ring depth", "IPC gain", "MPKI reduction")
			for _, d := range depths {
				name := fmt.Sprintf("pdede-mt-ring%d", d)
				tb.AddRow(fmt.Sprint(d),
					metrics.Pct(metrics.GeoMeanSpeedup(suite.Gains(name, NameBaseline))),
					metrics.Pct0(metrics.Mean(suite.MPKIReductions(name, NameBaseline))))
			}
			_, err = fmt.Fprint(w, tb)
			return err
		},
	}
}

// extWrongPath — wrong-path ICache pollution sensitivity.
func extWrongPath() Experiment {
	return Experiment{
		ID:    "ext-wrongpath",
		Title: "Extension: wrong-path ICache pollution sensitivity",
		Paper: "the paper's simulator models wrong-path fetch; this sweeps the pollution depth",
		Run: func(r *Runner, w io.Writer) error {
			var designs []Design
			lines := []int{0, 4, 8}
			for _, n := range lines {
				p := core.Icelake()
				p.WrongPathLines = n
				bn := fmt.Sprintf("baseline-wp%d", n)
				mn := fmt.Sprintf("pdede-me-wp%d", n)
				designs = append(designs,
					WithParams(BaselineDesign(bn, 4096), bn, p),
					WithParams(PDedeDesign(mn, pdede.MultiEntryConfig()), mn, p))
			}
			suite, err := r.Run(designs)
			if err != nil {
				return err
			}
			tb := metrics.NewTable("wrong-path lines", "baseline ICache miss rate", "PDede-ME IPC gain")
			for _, n := range lines {
				var mr []float64
				bn := fmt.Sprintf("baseline-wp%d", n)
				for _, a := range suite.OK(bn) {
					res := a.Results[bn]
					mr = append(mr, float64(res.ICacheMisses)/float64(res.ICacheAccesses))
				}
				tb.AddRow(fmt.Sprint(n),
					metrics.Pct0(metrics.Mean(mr)),
					metrics.Pct(metrics.GeoMeanSpeedup(suite.Gains(
						fmt.Sprintf("pdede-me-wp%d", n), fmt.Sprintf("baseline-wp%d", n)))))
			}
			_, err = fmt.Fprint(w, tb)
			return err
		},
	}
}

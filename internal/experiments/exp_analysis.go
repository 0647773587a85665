package experiments

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/addr"
	"repro/internal/analysis"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/textplot"
	"repro/internal/workload"
)

// expFig1 — frontend stall share and BTB-resteer share (Top-Down style).
func expFig1() Experiment {
	return Experiment{
		ID:    "fig1",
		Title: "Figure 1: frontend stalls and branch-resteer share (baseline BTB)",
		Paper: "BTB-induced resteers are the largest contributor, >40% of frontend stall cycles",
		Run: func(r *Runner, w io.Writer) error {
			suite, err := r.Run([]Design{BaselineDesign(NameBaseline, 4096)})
			if err != nil {
				return err
			}
			tb := metrics.NewTable("category", "apps", "frontend-stall%", "btb-resteer share of stalls%", "all-resteer share%")
			add := func(label string, idx []int) {
				var fe, share, all []float64
				for _, i := range idx {
					res := suite.Apps[i].Result(NameBaseline)
					if res == nil {
						continue
					}
					fe = append(fe, res.FrontendStallFrac())
					share = append(share, res.BTBResteerShareOfStalls())
					stalls := res.FrontendBubbles + res.BTBResteerCycles + res.DirResteerCycles + res.RetResteerCycles
					if stalls > 0 {
						all = append(all, (res.BTBResteerCycles+res.DirResteerCycles+res.RetResteerCycles)/stalls)
					}
				}
				tb.AddRow(label, fmt.Sprint(len(idx)),
					metrics.Pct0(metrics.Mean(fe)), metrics.Pct0(metrics.Mean(share)), metrics.Pct0(metrics.Mean(all)))
			}
			byCat := suite.ByCategory()
			for _, cat := range sortedCategories(byCat) {
				add(cat.String(), byCat[cat])
			}
			var allIdx []int
			for i := range suite.Apps {
				if !suite.Apps[i].Failed() {
					allIdx = append(allIdx, i)
				}
			}
			add("ALL", allIdx)
			_, err = fmt.Fprint(w, tb)
			return err
		},
	}
}

// expFig3 — taken-branch rates.
func expFig3() Experiment {
	return Experiment{
		ID:    "fig3",
		Title: "Figure 3: percentage of static branch PCs and dynamic branches that are taken",
		Paper: "branches are taken more than 50% of the time",
		Run: func(r *Runner, w io.Writer) error {
			chars, err := r.CharacterizeSuite()
			if err != nil {
				return err
			}
			var static, dyn []float64
			for _, c := range chars {
				static = append(static, c.Char.StaticTakenRate())
				dyn = append(dyn, c.Char.DynTakenRate())
			}
			tb := metrics.NewTable("metric", "mean", "min", "max")
			tb.AddRow("static taken PCs", metrics.Pct0(metrics.Mean(static)), metrics.Pct0(metrics.Min(static)), metrics.Pct0(metrics.Max(static)))
			tb.AddRow("dynamic taken branches", metrics.Pct0(metrics.Mean(dyn)), metrics.Pct0(metrics.Min(dyn)), metrics.Pct0(metrics.Max(dyn)))
			_, err = fmt.Fprint(w, tb)
			return err
		},
	}
}

// expFig4 — branch-type mix among taken branches, per category.
func expFig4() Experiment {
	return Experiment{
		ID:    "fig4",
		Title: "Figure 4: branch-type breakdown of dynamic taken branches, per category",
		Paper: "skewed toward conditional/unconditional direct, but all types occur (indirect ≈10%)",
		Run: func(r *Runner, w io.Writer) error {
			chars, err := r.CharacterizeSuite()
			if err != nil {
				return err
			}
			byCat := map[workload.Category][]AppChar{}
			for _, c := range chars {
				byCat[c.App.Category] = append(byCat[c.App.Category], c)
			}
			tb := metrics.NewTable("category", "cond-direct", "uncond-direct", "indirect", "return")
			for cat := workload.Category(0); cat < workload.NumCategories; cat++ {
				list := byCat[cat]
				if len(list) == 0 {
					continue
				}
				var shares [isa.NumClasses][]float64
				for _, c := range list {
					for cl := isa.Class(0); cl < isa.NumClasses; cl++ {
						shares[cl] = append(shares[cl], c.Char.ClassShare(cl))
					}
				}
				tb.AddRow(cat.String(),
					metrics.Pct0(metrics.Mean(shares[0])), metrics.Pct0(metrics.Mean(shares[1])),
					metrics.Pct0(metrics.Mean(shares[2])), metrics.Pct0(metrics.Mean(shares[3])))
			}
			_, err = fmt.Fprint(w, tb)
			return err
		},
	}
}

// expFig5 — region/page/offset time series of the wasm browser app.
func expFig5() Experiment {
	return Experiment{
		ID:    "fig5",
		Title: "Figure 5: runtime region/page/offset plot (WebAssembly browser app)",
		Paper: "few regions with strong phase locality; many pages; offsets dense and unstructured",
		Run: func(r *Runner, w io.Writer) error {
			cfg, ok := workload.CatalogByName("Browser-wasm-runtime")
			if !ok {
				return fmt.Errorf("wasm app missing from catalog")
			}
			_, tr, err := workload.Build(cfg, r.Opts.TotalInstrs)
			if err != nil {
				return err
			}
			samples, err := analysis.TimeSeries(tr.Open(), 512)
			if err != nil {
				return err
			}
			// Summarize in 20 buckets: distinct regions/pages visited and
			// region id range per bucket (a textual stand-in for the plot).
			const buckets = 20
			if len(samples) < buckets {
				return fmt.Errorf("too few samples: %d", len(samples))
			}
			per := len(samples) / buckets
			tb := metrics.NewTable("window", "regions", "dominant-region", "pages", "offset-spread")
			totalRegions := map[int]bool{}
			totalPages := map[int]bool{}
			for b := 0; b < buckets; b++ {
				regs := map[int]int{}
				pages := map[int]bool{}
				var offMin, offMax addr.PageOffset = ^addr.PageOffset(0), 0
				for _, s := range samples[b*per : (b+1)*per] {
					regs[s.Region]++
					pages[s.Page] = true
					totalRegions[s.Region] = true
					totalPages[s.Page] = true
					if s.Offset < offMin {
						offMin = s.Offset
					}
					if s.Offset > offMax {
						offMax = s.Offset
					}
				}
				dom, domN := dominantRegion(regs)
				tb.AddRow(fmt.Sprint(b), fmt.Sprint(len(regs)),
					fmt.Sprintf("r%d (%.0f%%)", dom, 100*float64(domN)/float64(per)),
					fmt.Sprint(len(pages)), fmt.Sprintf("[%d,%d]", offMin, offMax))
			}
			fmt.Fprintf(w, "distinct regions=%d, distinct pages=%d over %d sampled targets\n",
				len(totalRegions), len(totalPages), len(samples))
			if _, err = fmt.Fprint(w, tb); err != nil {
				return err
			}
			// Strip charts of the Figure 5 series: region rank and page rank
			// over time (phases show as plateaus).
			regions := make([]float64, len(samples))
			pages := make([]float64, len(samples))
			for i, smp := range samples {
				regions[i] = float64(smp.Region)
				pages[i] = float64(smp.Page)
			}
			fmt.Fprintf(w, "\nregion rank over time:\n%s", textplot.Series(regions, 72, 6))
			fmt.Fprintf(w, "page rank over time:\n%s", textplot.Series(pages, 72, 8))
			return nil
		},
	}
}

// dominantRegion returns the region with the most samples and its count.
// Regions are visited in id order, so a tie goes to the lowest id whatever
// order the map iterates in.
func dominantRegion(regs map[int]int) (id, n int) {
	ids := make([]int, 0, len(regs))
	for r := range regs {
		ids = append(ids, r)
	}
	sort.Ints(ids)
	id = -1
	for _, r := range ids {
		if c := regs[r]; c > n {
			id, n = r, c
		}
	}
	return id, n
}

// expFig6 — targets per page and per region.
func expFig6() Experiment {
	return Experiment{
		ID:    "fig6",
		Title: "Figure 6: average branch targets per page and per region",
		Paper: "≈18 targets per page, ≈2200 per region",
		Run: func(r *Runner, w io.Writer) error {
			chars, err := r.CharacterizeSuite()
			if err != nil {
				return err
			}
			var perPage, perRegion []float64
			for _, c := range chars {
				perPage = append(perPage, c.Char.TargetsPerPage())
				perRegion = append(perRegion, c.Char.TargetsPerRegion())
			}
			tb := metrics.NewTable("metric", "mean", "min", "max", "paper")
			tb.AddRow("targets/page", fmt.Sprintf("%.1f", metrics.Mean(perPage)),
				fmt.Sprintf("%.1f", metrics.Min(perPage)), fmt.Sprintf("%.1f", metrics.Max(perPage)), "≈18")
			tb.AddRow("targets/region", fmt.Sprintf("%.0f", metrics.Mean(perRegion)),
				fmt.Sprintf("%.0f", metrics.Min(perRegion)), fmt.Sprintf("%.0f", metrics.Max(perRegion)), "≈2200")
			_, err = fmt.Fprint(w, tb)
			return err
		},
	}
}

// expFig7 — unique target/region/page/offset shares.
func expFig7() Experiment {
	return Experiment{
		ID:    "fig7",
		Title: "Figure 7: unique targets / regions / pages / offsets relative to unique branch PCs",
		Paper: "targets 67%, regions 0.07%, pages 5%, offsets 18%",
		Run: func(r *Runner, w io.Writer) error {
			chars, err := r.CharacterizeSuite()
			if err != nil {
				return err
			}
			var tg, rg, pg, of []float64
			for _, c := range chars {
				a, b, d, e := c.Char.UniqueShare()
				tg, rg, pg, of = append(tg, a), append(rg, b), append(pg, d), append(of, e)
			}
			tb := metrics.NewTable("entity", "mean share", "paper")
			tb.AddRow("targets", metrics.Pct0(metrics.Mean(tg)), "67%")
			tb.AddRow("regions", fmt.Sprintf("%.3f%%", 100*metrics.Mean(rg)), "0.07%")
			tb.AddRow("pages", metrics.Pct0(metrics.Mean(pg)), "5%")
			tb.AddRow("offsets", metrics.Pct0(metrics.Mean(of)), "18% (byte-granular ISA; 4-byte instrs here cap offsets at 1024)")
			_, err = fmt.Fprint(w, tb)
			return err
		},
	}
}

// expFig8 — PC↔target page distance.
func expFig8() Experiment {
	return Experiment{
		ID:    "fig8",
		Title: "Figure 8: page distance between branch PC and target, by branch class",
		Paper: ">60% of branches have PC and target in the same page",
		Run: func(r *Runner, w io.Writer) error {
			chars, err := r.CharacterizeSuite()
			if err != nil {
				return err
			}
			var agg [isa.NumClasses][analysis.NumDistanceBuckets]uint64
			var samePage []float64
			for _, c := range chars {
				samePage = append(samePage, c.Char.DynSamePageRate())
				for cl := 0; cl < isa.NumClasses; cl++ {
					for b := 0; b < analysis.NumDistanceBuckets; b++ {
						agg[cl][b] += c.Char.DistanceByClass[cl][b]
					}
				}
			}
			tb := metrics.NewTable("class", "same-page", "1-15", "16-4K", "4K-64K", ">64K")
			for cl := isa.Class(0); cl < isa.NumClasses; cl++ {
				if cl == isa.ClassReturn {
					continue // returns are RAS-served and excluded in the paper
				}
				var total uint64
				for _, n := range agg[cl] {
					total += n
				}
				if total == 0 {
					continue
				}
				row := []string{cl.String()}
				for b := 0; b < analysis.NumDistanceBuckets; b++ {
					row = append(row, metrics.Pct0(float64(agg[cl][b])/float64(total)))
				}
				tb.AddRow(row...)
			}
			fmt.Fprintf(w, "mean dynamic same-page rate: %s (paper: >60%%)\n", metrics.Pct0(metrics.Mean(samePage)))
			_, err = fmt.Fprint(w, tb)
			return err
		},
	}
}

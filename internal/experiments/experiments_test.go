package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/workload"
)

func quickRunner() *Runner {
	return NewRunner(Options{
		Apps:         8,
		TotalInstrs:  900_000,
		WarmupInstrs: 400_000,
	})
}

func TestOptionsNormalization(t *testing.T) {
	o := Options{}.normalized()
	if o.TotalInstrs == 0 || o.WarmupInstrs == 0 || o.Workers <= 0 {
		t.Errorf("normalization left zeros: %+v", o)
	}
	o = Options{TotalInstrs: 100, WarmupInstrs: 200}.normalized()
	if o.WarmupInstrs >= o.TotalInstrs {
		t.Errorf("warmup not clamped: %+v", o)
	}
}

func TestSuiteAppsSampling(t *testing.T) {
	r := NewRunner(Options{Apps: 10})
	apps := r.SuiteApps()
	if len(apps) != 10 {
		t.Fatalf("sampled %d apps, want 10", len(apps))
	}
	cats := map[workload.Category]bool{}
	for _, a := range apps {
		cats[a.Category] = true
	}
	if len(cats) < 3 {
		t.Errorf("sampling covered only %d categories", len(cats))
	}
	full := NewRunner(Options{}).SuiteApps()
	if len(full) != 102 {
		t.Errorf("full suite has %d apps", len(full))
	}
}

func TestRunSuiteBasics(t *testing.T) {
	r := quickRunner()
	suite, err := r.Run(StandardDesigns())
	if err != nil {
		t.Fatal(err)
	}
	if len(suite.Apps) != 8 {
		t.Fatalf("suite has %d apps", len(suite.Apps))
	}
	for _, a := range suite.Apps {
		if len(a.Results) != 4 {
			t.Fatalf("app %s has %d results", a.App.Name, len(a.Results))
		}
		for name, res := range a.Results {
			if res.Instructions == 0 || res.Cycles == 0 {
				t.Errorf("%s/%s: empty result", a.App.Name, name)
			}
		}
	}
	gains := suite.Gains(NameMultiEntry, NameBaseline)
	if len(gains) != 8 {
		t.Fatalf("gains for %d apps", len(gains))
	}
	// Headline shape: PDede-ME helps on average.
	if g := metrics.GeoMeanSpeedup(gains); g <= 0 {
		t.Errorf("PDede-ME geomean gain = %v, want > 0", g)
	}
	if red := metrics.Mean(suite.MPKIReductions(NameMultiEntry, NameBaseline)); red <= 0.1 {
		t.Errorf("PDede-ME MPKI reduction = %v, want > 10%%", red)
	}
}

func TestVariantOrderingAcrossSuite(t *testing.T) {
	r := quickRunner()
	suite, err := r.Run(StandardDesigns())
	if err != nil {
		t.Fatal(err)
	}
	gDef := metrics.GeoMeanSpeedup(suite.Gains(NamePDede, NameBaseline))
	gMT := metrics.GeoMeanSpeedup(suite.Gains(NameMultiTarget, NameBaseline))
	gME := metrics.GeoMeanSpeedup(suite.Gains(NameMultiEntry, NameBaseline))
	if !(gME >= gMT && gMT >= gDef-0.002) {
		t.Errorf("ordering violated: default=%v mt=%v me=%v", gDef, gMT, gME)
	}
}

func TestByCategory(t *testing.T) {
	r := quickRunner()
	suite, err := r.Run([]Design{BaselineDesign(NameBaseline, 4096)})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, idx := range suite.ByCategory() {
		total += len(idx)
	}
	if total != len(suite.Apps) {
		t.Errorf("category partition covers %d of %d apps", total, len(suite.Apps))
	}
}

func TestRegistry(t *testing.T) {
	all := All()
	want := []string{"fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig10", "fig11a", "fig11b", "fig11c", "fig12a", "fig12b", "fig12c",
		"table2", "table4", "sec55", "sec56", "sec57", "sec511"}
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
		seen[e.ID] = true
	}
	for _, id := range want {
		if !seen[id] {
			t.Errorf("missing experiment %s", id)
		}
		if _, ok := ByID(id); !ok {
			t.Errorf("ByID(%s) failed", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID invented an experiment")
	}
	ext := ExtExperiments()
	if len(ext) != 6 {
		t.Fatalf("extensions = %d, want 6", len(ext))
	}
	for _, e := range ext {
		if _, ok := ByID(e.ID); !ok {
			t.Errorf("ByID(%s) failed", e.ID)
		}
		if e.Run == nil || e.Title == "" {
			t.Errorf("extension %q incomplete", e.ID)
		}
	}
	if got := len(Extended()); got != len(all)+len(ext) {
		t.Errorf("Extended() = %d", got)
	}
}

// Every analysis experiment must run end-to-end on a tiny suite.
func TestAnalysisExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests are not short")
	}
	r := NewRunner(Options{Apps: 4, TotalInstrs: 600_000, WarmupInstrs: 250_000})
	for _, id := range []string{"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "table2", "table4"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %s missing", id)
		}
		var buf bytes.Buffer
		if err := e.Run(r, &buf); err != nil {
			t.Errorf("%s: %v", id, err)
			continue
		}
		if buf.Len() == 0 {
			t.Errorf("%s produced no output", id)
		}
	}
}

// fig5's dominant region is the most-sampled one, and a tie goes to the
// lowest id on every call, whatever order the count map iterates in.
func TestDominantRegionBreaksTiesByID(t *testing.T) {
	regs := map[int]int{}
	for id := 40; id < 80; id++ {
		regs[id] = 3
	}
	regs[90] = 2
	for i := 0; i < 8; i++ {
		if id, n := dominantRegion(regs); id != 40 || n != 3 {
			t.Fatalf("call %d: dominantRegion = r%d (%d), want r40 (3)", i, id, n)
		}
	}
	regs[95] = 4
	if id, n := dominantRegion(regs); id != 95 || n != 4 {
		t.Errorf("dominantRegion = r%d (%d), want r95 (4)", id, n)
	}
	if id, n := dominantRegion(nil); id != -1 || n != 0 {
		t.Errorf("dominantRegion(nil) = r%d (%d), want r-1 (0)", id, n)
	}
}

// The headline experiment must produce a well-formed report with the
// paper-shaped design ordering.
func TestFig10Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("not short")
	}
	r := NewRunner(Options{Apps: 6, TotalInstrs: 800_000, WarmupInstrs: 350_000})
	e, _ := ByID("fig10")
	var buf bytes.Buffer
	if err := e.Run(r, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{NamePDede, NameMultiTarget, NameMultiEntry, "Per-category", "Per-app"} {
		if !strings.Contains(out, frag) {
			t.Errorf("fig10 output missing %q:\n%s", frag, out)
		}
	}
}

func TestCharacterizeSuite(t *testing.T) {
	r := NewRunner(Options{Apps: 4, TotalInstrs: 500_000, WarmupInstrs: 200_000})
	chars, err := r.CharacterizeSuite()
	if err != nil {
		t.Fatal(err)
	}
	if len(chars) != 4 {
		t.Fatalf("characterized %d apps", len(chars))
	}
	for _, c := range chars {
		if c.Char == nil || c.Char.DynBranches == 0 {
			t.Errorf("empty characterization for %s", c.App.Name)
		}
	}
}

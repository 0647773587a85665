package pdedesim

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

func quickOpts() SimOptions {
	o := DefaultSimOptions()
	o.TotalInstrs = 800_000
	o.WarmupInstrs = 350_000
	return o
}

func TestCatalogAndLookup(t *testing.T) {
	if got := len(Catalog()); got != 102 {
		t.Fatalf("catalog has %d apps", got)
	}
	if _, err := AppByName("Server-oltp-primary"); err != nil {
		t.Error(err)
	}
	if _, err := AppByName("nope"); err == nil {
		t.Error("bogus app accepted")
	}
}

func TestBuildTraceAndCharacterize(t *testing.T) {
	app := DefaultApp()
	app.StaticBranches = 2000
	tr, err := BuildTrace(app, 300_000)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Characterize(tr)
	if err != nil {
		t.Fatal(err)
	}
	if c.DynTakenRate() < 0.5 {
		t.Errorf("taken rate %v", c.DynTakenRate())
	}
}

func TestSimulateEndToEnd(t *testing.T) {
	app := DefaultApp()
	app.StaticBranches = 12000
	tr, err := BuildTrace(app, quickOpts().TotalInstrs)
	if err != nil {
		t.Fatal(err)
	}
	base, err := SimulateTrace(app, tr, Baseline(4096), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	me, err := SimulateTrace(app, tr, PDedeMultiEntry(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if me.Speedup(base) <= 0 {
		t.Errorf("PDede-ME speedup %v on capacity-bound app", me.Speedup(base))
	}
	if me.MPKIReduction(base) <= 0 {
		t.Errorf("PDede-ME MPKI reduction %v", me.MPKIReduction(base))
	}
}

func TestAllDesignConstructors(t *testing.T) {
	designs := []func() (TargetPredictor, error){
		Baseline(4096), PDedeDefault(), PDedeMultiTarget(), PDedeMultiEntry(),
		PDedeCustom(PDedeConfig{Sets: 256, Ways: 8, PageEntries: 512, PageWays: 4, RegionEntries: 4}),
		PDedeScaled(8192, 2), DedupOnly(), ShotgunBTB(),
		TwoLevel(256, PDedeMultiEntry()), PerfectBTB(),
	}
	for i, d := range designs {
		tp, err := d()
		if err != nil {
			t.Errorf("design %d: %v", i, err)
			continue
		}
		if tp.Name() == "" {
			t.Errorf("design %d unnamed", i)
		}
	}
}

func TestPipelineModelOption(t *testing.T) {
	app := DefaultApp()
	app.StaticBranches = 6000
	tr, err := BuildTrace(app, 600_000)
	if err != nil {
		t.Fatal(err)
	}
	opts := quickOpts()
	opts.UsePipelineModel = true
	res, err := SimulateTrace(app, tr, PDedeMultiEntry(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.IPC() <= 0 {
		t.Errorf("pipeline model IPC = %v", res.IPC())
	}
	analytic, err := SimulateTrace(app, tr, PDedeMultiEntry(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.BTBMisses() != analytic.BTBMisses() {
		t.Errorf("models disagree on BTB misses: %d vs %d", res.BTBMisses(), analytic.BTBMisses())
	}
}

func TestExperimentRegistryExposed(t *testing.T) {
	if got := len(Experiments()); got != 20 {
		t.Errorf("experiments = %d, want 20", got)
	}
	if got := len(ExtensionExperiments()); got != 6 {
		t.Errorf("extension experiments = %d, want 6", got)
	}
	var buf bytes.Buffer
	if err := RunExperiment("nope", QuickSuite(), &buf); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestDumpSuiteJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a suite")
	}
	// The dump replaces an earlier one atomically: a reader holding the
	// old file open still reads it whole.
	path := t.TempDir() + "/suite.json"
	old := []byte("[]\n")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	held, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	opts := SuiteOptions{Apps: 2, TotalInstrs: 400_000, WarmupInstrs: 150_000}
	if err := DumpSuiteJSON(opts, path); err != nil {
		t.Fatal(err)
	}
	if got, err := io.ReadAll(held); err != nil || !bytes.Equal(got, old) {
		t.Errorf("a reader holding the old dump open read %.40q (err %v), want %q", got, err, old)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var recs []map[string]any
	if err := json.Unmarshal(data, &recs); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(recs) != 8 { // 2 apps × 4 designs
		t.Errorf("records = %d, want 8", len(recs))
	}
}

func TestRunExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("not short")
	}
	opts := SuiteOptions{Apps: 4, TotalInstrs: 600_000, WarmupInstrs: 250_000}
	var buf bytes.Buffer
	if err := RunExperiment("fig3", opts, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "taken") {
		t.Errorf("fig3 output:\n%s", buf.String())
	}
}

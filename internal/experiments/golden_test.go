package experiments

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// -update regenerates the golden files from the current implementation:
//
//	go test ./internal/experiments/ -run TestGolden -update
//
// Review the diff before committing — the goldens exist to make every
// metric-shifting change deliberate and visible.
var updateGoldens = flag.Bool("update", false, "rewrite golden regression files")

// goldenOptions pins a small, fast, fully deterministic suite: 4 apps
// sampled across the categories, short windows, two workers (the runner is
// order-deterministic at any worker count; two keep timings tame in -race
// runs).
func goldenOptions() Options {
	return Options{
		Apps:         4,
		TotalInstrs:  300_000,
		WarmupInstrs: 100_000,
		Workers:      2,
	}
}

// goldenRelTol absorbs cross-platform float drift (e.g. fused
// multiply-add contraction on arm64) while still catching any real change
// in the cycle accounting.
const goldenRelTol = 1e-6

func runGoldenSuite(t *testing.T, designs []Design) []ExportRecord {
	t.Helper()
	suite, err := NewRunner(goldenOptions()).Run(designs)
	if err != nil {
		t.Fatal(err)
	}
	recs := suite.Export()
	if len(recs) == 0 {
		t.Fatal("golden suite produced no records")
	}
	return recs
}

func goldenCompare(t *testing.T, path string, got []ExportRecord) {
	t.Helper()
	if *updateGoldens {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d records)", path, len(got))
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	var want []ExportRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden %s: %v", path, err)
	}
	if len(got) != len(want) {
		t.Fatalf("record count %d, golden has %d", len(got), len(want))
	}
	for i := range want {
		compareRecord(t, i, got[i], want[i])
	}
}

// compareRecord checks one record field-by-field: integers and strings
// exactly, floats within goldenRelTol relative tolerance.
func compareRecord(t *testing.T, i int, got, want ExportRecord) {
	t.Helper()
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	typ := gv.Type()
	for f := 0; f < typ.NumField(); f++ {
		name := typ.Field(f).Name
		g, w := gv.Field(f), wv.Field(f)
		switch g.Kind() {
		case reflect.Float64:
			gf, wf := g.Float(), w.Float()
			if math.Abs(gf-wf) > goldenRelTol*math.Max(1, math.Abs(wf)) {
				t.Errorf("record %d (%s/%s) %s = %g, golden %g",
					i, want.App, want.Design, name, gf, wf)
			}
		default:
			if !reflect.DeepEqual(g.Interface(), w.Interface()) {
				t.Errorf("record %d (%s/%s) %s = %v, golden %v",
					i, want.App, want.Design, name, g.Interface(), w.Interface())
			}
		}
	}
}

// TestGoldenFig1 pins the Figure 1 inputs: the baseline design's stall
// decomposition metrics over the golden app subset.
func TestGoldenFig1(t *testing.T) {
	if testing.Short() {
		t.Skip("golden suites skipped in -short mode")
	}
	recs := runGoldenSuite(t, []Design{BaselineDesign(NameBaseline, 4096)})
	goldenCompare(t, filepath.Join("testdata", "fig1.golden.json"), recs)
}

// TestGoldenFig10 pins the headline comparison: baseline vs the three PDede
// variants, every exported metric.
func TestGoldenFig10(t *testing.T) {
	if testing.Short() {
		t.Skip("golden suites skipped in -short mode")
	}
	recs := runGoldenSuite(t, StandardDesigns())
	goldenCompare(t, filepath.Join("testdata", "fig10.golden.json"), recs)
}

// TestGoldenDesigns pins every design the differential oracle registers,
// every exported metric, so a change to any design's internals — not only
// the Figure 10 four — must leave its simulated statistics unchanged.
func TestGoldenDesigns(t *testing.T) {
	if testing.Short() {
		t.Skip("golden suites skipped in -short mode")
	}
	recs := runGoldenSuite(t, DiffDesigns())
	goldenCompare(t, filepath.Join("testdata", "designs.golden.json"), recs)
}

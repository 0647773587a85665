package oracle

import (
	"context"
	"os"
	"strconv"
	"testing"

	"repro/internal/btb"
	"repro/internal/experiments"
	"repro/internal/workload"
)

// checkDeepApps returns how many catalog applications the differential sweep
// covers. `make test` keeps it small; `make check-deep` (and CI) raise it via
// the CHECK_DEEP_APPS environment variable (go test rejects unregistered
// flags, so the knob is an env var).
func checkDeepApps() int {
	if v := os.Getenv("CHECK_DEEP_APPS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 2
}

// checkDeepDesigns is the shared diff-design registry from
// internal/experiments: every design the experiments drive, including the
// ablation intermediates, the hierarchy and Perfect. The list lives in
// non-test code because pdede-serve and `pdede-experiments -check` use it
// too; experiments.TestDiffDesignsCoverEveryDesign checks it against the
// design packages.
func checkDeepDesigns() []experiments.Design {
	return experiments.DiffDesigns()
}

// TestCheckDeep is the differential sweep behind `make check-deep`: every
// registered design runs in lockstep with its reference oracle over a subset
// of the application catalog, with periodic deep audits. Any semantic
// divergence or audit failure fails the test; legal capacity/aliasing
// divergences are expected and logged.
func TestCheckDeep(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep skipped in -short mode")
	}
	const instrs = 400_000
	catalog := workload.Catalog()
	nApps := checkDeepApps()
	if nApps > len(catalog) {
		nApps = len(catalog)
	}
	designs := checkDeepDesigns()
	for i := 0; i < nApps; i++ {
		app := catalog[i*len(catalog)/nApps] // spread across categories
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			_, tr, err := workload.Build(app, instrs)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range designs {
				d := d
				t.Run(d.Name, func(t *testing.T) {
					// Designs of one app run concurrently too (each opens
					// its own reader from the shared source), so the sweep
					// scales with -parallel (CHECK_DEEP_WORKERS in make
					// check-deep), not just with the app count.
					t.Parallel()
					tp, err := d.New()
					if err != nil {
						t.Fatal(err)
					}
					rep, err := DiffDesign(context.Background(), tp, tr, Options{AuditEvery: 2048})
					if err != nil {
						t.Fatal(err)
					}
					if err := rep.Err(); err != nil {
						t.Error(err)
					}
					if rep.Compared == 0 {
						t.Error("differential run compared zero predictions")
					}
					t.Log(rep.Summary())
				})
			}
		})
	}
}

// TestDiffPerfectMatchesReference pins the strongest property the runner
// offers: the unbounded Perfect design and the Reference oracle implement
// the same update rules, so they must agree on every single compare.
func TestDiffPerfectMatchesReference(t *testing.T) {
	app := workload.Default()
	_, tr, err := workload.Build(app, 300_000)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := DiffDesign(context.Background(), btb.NewPerfect(), tr, Options{AuditEvery: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Compared == 0 || rep.Agreed != rep.Compared {
		t.Fatalf("perfect vs reference must agree everywhere: %s", rep.Summary())
	}
	var legal uint64
	for c := 0; c < classCount; c++ {
		legal += rep.Counts[c]
	}
	if legal != 0 {
		t.Fatalf("perfect vs reference recorded divergences: %s", rep.Summary())
	}
}

// TestCheckDeepReportsFatalInjection closes the loop on the sweep itself: a
// design that fabricates targets must be flagged, proving the classifier
// does not wave everything through as legal.
func TestCheckDeepReportsFatalInjection(t *testing.T) {
	app := workload.Default()
	_, tr, err := workload.Build(app, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Diff(context.Background(), &fabricator{}, NewReference(false), tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Count(Semantic) == 0 {
		t.Fatalf("fabricated targets not flagged: %s", rep.Summary())
	}
	if rep.Err() == nil {
		t.Fatal("Err() nil despite semantic divergences")
	}
}

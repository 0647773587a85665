package workload

import (
	"sync"
	"testing"
)

// Every one of the 102 catalog applications must synthesize and execute
// into a well-formed trace. This is the suite's integration safety net: a
// layout overflow or a degenerate parameter combination in any app fails
// here rather than deep inside an experiment run.
func TestAllCatalogAppsBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("builds all 102 apps")
	}
	apps := Catalog()
	var wg sync.WaitGroup
	sem := make(chan struct{}, 4)
	errs := make(chan error, len(apps))
	for _, app := range apps {
		wg.Add(1)
		go func(cfg Config) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			p, tr, err := Build(cfg, 150_000)
			if err != nil {
				errs <- err
				return
			}
			if len(p.Funcs) < 4 {
				t.Errorf("%s: only %d functions", cfg.Name, len(p.Funcs))
			}
			if got := tr.Instructions(); got < 150_000 {
				t.Errorf("%s: trace has only %d instructions", cfg.Name, got)
			}
			for i, b := range tr.Records {
				if err := b.Validate(); err != nil {
					t.Errorf("%s record %d: %v", cfg.Name, i, err)
					break
				}
			}
		}(app)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// Static branch counts must land near the configured budget.
func TestStaticBranchBudgetHonored(t *testing.T) {
	for _, n := range []int{2000, 8000, 30000} {
		cfg := Default()
		cfg.StaticBranches = n
		p, err := NewProgram(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := 2 // the driver's call and loop sites
		for _, f := range p.Funcs {
			got += len(f.Sites) + 1 // + return
		}
		lo, hi := n*70/100, n*135/100
		if got < lo || got > hi {
			t.Errorf("budget %d produced %d static branches (want %d..%d)", n, got, lo, hi)
		}
	}
}

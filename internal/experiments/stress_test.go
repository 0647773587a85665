package experiments

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/btb"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestParallelStress hammers every resilience mechanism at once from a
// worker pool far larger than the cell count: ten clean designs plus one
// that panics mid-trace, read faults on a third of the apps, and a live
// checkpoint flushed concurrently from every finishing app. Run under
// `make race` this is the schedule fuzzer for the parallel runner; the
// assertions below additionally pin that the chaos still reduces to the
// exact sequential outcome — every clean app fails at the panicking
// design, keeps all ten clean results, and checkpoints exactly those,
// while every faulted app fails at its first read fault with no results
// and nothing checkpointed.
func TestParallelStress(t *testing.T) {
	cat := tinyCatalog(6)
	const cleanDesigns = 10

	opts := Options{
		Catalog:        cat,
		TotalInstrs:    30_000,
		WarmupInstrs:   10_000,
		Workers:        32, // far more workers than runnable cells
		KeepGoing:      true,
		CheckpointPath: filepath.Join(t.TempDir(), "stress.ckpt"),
	}
	faulted := map[string]bool{"tiny-1": true, "tiny-4": true}
	opts.BuildTrace = func(app workload.Config, total uint64) (trace.Source, error) {
		src, err := buildSource(app, total)
		if err != nil || !faulted[app.Name] {
			return src, err
		}
		return &trace.FaultSource{Src: src, Plan: trace.FaultPlan{FailAt: 10}}, nil
	}

	var designs []Design
	for i := 0; i < cleanDesigns; i++ {
		designs = append(designs, BaselineDesign(fmt.Sprintf("b%d", i), 128<<uint(i%4)))
	}
	designs = append(designs, Design{Name: "panicky", New: func() (btb.TargetPredictor, error) {
		inner, err := btb.NewBaseline(btb.BaselineConfig{Entries: 256})
		if err != nil {
			return nil, err
		}
		return &panickyBTB{TargetPredictor: inner}, nil
	}})

	suite, err := NewRunner(opts).Run(designs)
	if suite == nil {
		t.Fatalf("no suite returned (err=%v)", err)
	}
	if err == nil {
		t.Error("want all-apps-failed error when every app fails")
	}

	for i := range suite.Apps {
		a := &suite.Apps[i]
		if faulted[a.App.Name] {
			if !errors.Is(a.Err, trace.ErrInjected) || len(a.Results) != 0 {
				t.Errorf("%s: err = %v with %d results, want the injected read fault and none",
					a.App.Name, a.Err, len(a.Results))
			}
			continue
		}
		var pe *PanicError
		if !errors.As(a.Err, &pe) || !strings.Contains(a.Err.Error(), "design panicky") {
			t.Errorf("%s: err = %v, want *PanicError attributed to design panicky", a.App.Name, a.Err)
		}
		if len(a.Results) != cleanDesigns {
			t.Errorf("%s: %d results survived, want %d clean designs", a.App.Name, len(a.Results), cleanDesigns)
		}
	}

	ck, err := LoadCheckpoint(opts.CheckpointPath, CheckpointMeta{
		TotalInstrs:  opts.TotalInstrs,
		WarmupInstrs: opts.WarmupInstrs,
		Designs:      DesignDigests(designs),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range cat {
		for i := 0; i < cleanDesigns; i++ {
			_, ok := ck.Done(app.Name, fmt.Sprintf("b%d", i))
			if ok == faulted[app.Name] {
				t.Errorf("%s: clean design b%d checkpointed=%v, want %v", app.Name, i, ok, !faulted[app.Name])
			}
		}
		if _, ok := ck.Done(app.Name, "panicky"); ok {
			t.Errorf("%s: failed design present in checkpoint", app.Name)
		}
	}
}

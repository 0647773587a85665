package core

import (
	"math"
	"testing"

	"repro/internal/btb"
	"repro/internal/pdede"
	"repro/internal/trace"
	"repro/internal/workload"
)

// runPipe is runWith under the pipeline model.
func runPipe(t *testing.T, tp btb.TargetPredictor, tr *trace.Memory, app workload.Config, mod func(*Config)) *Result {
	t.Helper()
	return runWith(t, tp, tr, app, func(c *Config) {
		c.UsePipeline = true
		if mod != nil {
			mod(c)
		}
	})
}

func TestPipelineBasics(t *testing.T) {
	tr, app := testTrace(t, 8000)
	b, _ := btb.NewBaseline(btb.BaselineConfig{Entries: 4096})
	res := runPipe(t, b, tr, app, nil)
	if res.Instructions == 0 || res.Cycles <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if ipc := res.IPC(); ipc <= 0 || ipc > float64(Icelake().RetireWidth) {
		t.Errorf("IPC = %v out of range", ipc)
	}
	// Each measured block moves retirement on by its backend time plus the
	// bubble before it, so the window's span is their sum: no warmup
	// cycles may leak into it.
	if sum := res.BackendCycles + res.FrontendBubbles; math.Abs(res.Cycles-sum) > 1e-6*sum {
		t.Errorf("Cycles = %v, want BackendCycles + FrontendBubbles = %v", res.Cycles, sum)
	}
}

func TestPipelineDeterminism(t *testing.T) {
	tr, app := testTrace(t, 4000)
	mk := func() *Result {
		b, _ := btb.NewBaseline(btb.BaselineConfig{Entries: 4096})
		return runPipe(t, b, tr, app, nil)
	}
	a, b := mk(), mk()
	if a.Cycles != b.Cycles || a.BTBMisses() != b.BTBMisses() {
		t.Error("pipeline model not deterministic")
	}
}

// The two core models share the BPU, so their prediction statistics must be
// bit-identical; only the cycle mapping differs.
func TestPipelineMatchesAnalyticStats(t *testing.T) {
	tr, app := testTrace(t, 8000)
	b1, _ := btb.NewBaseline(btb.BaselineConfig{Entries: 4096})
	analytic := runWith(t, b1, tr, app, nil)
	b2, _ := btb.NewBaseline(btb.BaselineConfig{Entries: 4096})
	pipe := runPipe(t, b2, tr, app, nil)
	if analytic.BTBMisses() != pipe.BTBMisses() {
		t.Errorf("BTB misses differ: analytic %d vs pipeline %d", analytic.BTBMisses(), pipe.BTBMisses())
	}
	if analytic.DirMispredicts != pipe.DirMispredicts {
		t.Errorf("direction mispredicts differ")
	}
	if analytic.Instructions != pipe.Instructions {
		t.Errorf("instruction counts differ")
	}
}

// Cross-validation: the pipeline model must agree with the analytic model
// on IPC within a loose band and, more importantly, on design orderings.
func TestPipelineCrossValidatesAnalytic(t *testing.T) {
	tr, app := testTrace(t, 16000)

	type pair struct{ analytic, pipe float64 }
	results := map[string]pair{}
	for _, d := range []struct {
		name string
		mk   func() btb.TargetPredictor
	}{
		{"baseline", func() btb.TargetPredictor {
			b, _ := btb.NewBaseline(btb.BaselineConfig{Entries: 4096})
			return b
		}},
		{"pdede-me", func() btb.TargetPredictor {
			p, _ := pdede.New(pdede.MultiEntryConfig())
			return p
		}},
		{"perfect", func() btb.TargetPredictor { return btb.NewPerfect() }},
	} {
		a := runWith(t, d.mk(), tr, app, nil)
		p := runPipe(t, d.mk(), tr, app, nil)
		results[d.name] = pair{a.IPC(), p.IPC()}
		ratio := p.IPC() / a.IPC()
		if ratio < 0.6 || ratio > 1.4 {
			t.Errorf("%s: pipeline IPC %v vs analytic %v (ratio %v) outside band",
				d.name, p.IPC(), a.IPC(), ratio)
		}
	}
	// Ordering must agree: baseline < pdede-me ≤ perfect in both models.
	for _, m := range []func(pair) float64{
		func(p pair) float64 { return p.analytic },
		func(p pair) float64 { return p.pipe },
	} {
		if !(m(results["baseline"]) < m(results["pdede-me"])) {
			t.Errorf("ordering violated: baseline %v vs pdede-me %v",
				m(results["baseline"]), m(results["pdede-me"]))
		}
		if !(m(results["pdede-me"]) <= m(results["perfect"])*1.02) {
			t.Errorf("ordering violated: pdede-me %v vs perfect %v",
				m(results["pdede-me"]), m(results["perfect"]))
		}
	}
}

func TestPipelineRejectsBadConfig(t *testing.T) {
	tr, app := testTrace(t, 2000)
	if _, err := Run(Config{Params: Icelake(), BackendCPI: app.BackendCPI, UsePipeline: true}, tr); err == nil {
		t.Error("nil BTB accepted")
	}
	b, _ := btb.NewBaseline(btb.BaselineConfig{Entries: 512})
	if _, err := Run(Config{Params: Icelake(), BTB: b, UsePipeline: true}, tr); err == nil {
		t.Error("zero CPI accepted")
	}
}

func TestPipelineFTQGatesRunahead(t *testing.T) {
	tr, app := testTrace(t, 16000)
	ipc := func(ftq int) float64 {
		pd, _ := pdede.New(pdede.MultiEntryConfig())
		res := runPipe(t, pd, tr, app, func(c *Config) { c.Params.FetchQueueEntries = ftq })
		return res.IPC()
	}
	if small, large := ipc(4), ipc(128); small > large {
		t.Errorf("smaller FTQ gave higher IPC in pipeline model: %v vs %v", small, large)
	}
}

func TestPipelineMeasureWindow(t *testing.T) {
	tr, app := testTrace(t, 2000)
	b, _ := btb.NewBaseline(btb.BaselineConfig{Entries: 4096})
	res := runPipe(t, b, tr, app, func(c *Config) {
		c.WarmupInstrs = 100_000
		c.MeasureInstrs = 50_000
	})
	if res.Instructions < 50_000 || res.Instructions > 52_000 {
		t.Errorf("measured %d instructions", res.Instructions)
	}
}

// A trace that ends before the warmup does leaves the measured window
// empty: both models must report no instructions and no cycles, not the
// warmup's.
func TestPipelineWarmupLongerThanTrace(t *testing.T) {
	tr, app := testTrace(t, 2000)
	for _, pipe := range []bool{false, true} {
		b, _ := btb.NewBaseline(btb.BaselineConfig{Entries: 4096})
		res := runWith(t, b, tr, app, func(c *Config) {
			c.WarmupInstrs = 10_000_000
			c.UsePipeline = pipe
		})
		if res.Instructions != 0 || res.Cycles != 0 {
			t.Errorf("pipeline %v: measured %d instructions in %v cycles, want none",
				pipe, res.Instructions, res.Cycles)
		}
	}
}

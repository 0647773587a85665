package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/btb"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

// tinyCatalog builds n small, fast-to-simulate applications.
func tinyCatalog(n int) []workload.Config {
	out := make([]workload.Config, n)
	for i := range out {
		cfg := workload.Default()
		cfg.Name = fmt.Sprintf("tiny-%d", i)
		cfg.Seed = uint64(100 + i)
		cfg.StaticBranches = 800
		out[i] = cfg
	}
	return out
}

func tinyOpts(cat []workload.Config) Options {
	return Options{
		Catalog:      cat,
		TotalInstrs:  60_000,
		WarmupInstrs: 20_000,
		Workers:      2,
	}
}

func tinyDesigns() []Design {
	return []Design{
		BaselineDesign("b256", 256),
		BaselineDesign("b1k", 1024),
	}
}

// buildSource is the default BuildTrace hook body for tests that only
// override some apps.
func buildSource(app workload.Config, total uint64) (trace.Source, error) {
	_, tr, err := workload.Build(app, total)
	return tr, err
}

// appByName finds an app's result in the suite.
func appByName(t *testing.T, s *Suite, name string) *AppResult {
	t.Helper()
	for i := range s.Apps {
		if s.Apps[i].App.Name == name {
			return &s.Apps[i]
		}
	}
	t.Fatalf("app %s missing from suite", name)
	return nil
}

// The acceptance scenario: one app's reader panics, one app's reader loops
// forever until the per-app deadline, and the rest of the suite still
// completes with both failures recorded.
func TestKeepGoingIsolatesPanicAndTimeout(t *testing.T) {
	cat := tinyCatalog(4)
	opts := tinyOpts(cat)
	opts.KeepGoing = true
	opts.AppTimeout = 300 * time.Millisecond
	// AppTimeout starts when an app is admitted, not when it gets a pool
	// worker. One worker per app keeps tiny-1 from waiting out its deadline
	// in the queue behind tiny-2's looping warm pass.
	opts.Workers = len(cat)
	opts.BuildTrace = func(app workload.Config, total uint64) (trace.Source, error) {
		src, err := buildSource(app, total)
		if err != nil {
			return nil, err
		}
		switch app.Name {
		case "tiny-1":
			return &trace.FaultSource{Src: src, Plan: trace.FaultPlan{PanicAt: 5}}, nil
		case "tiny-2":
			return &trace.FaultSource{Src: src, Plan: trace.FaultPlan{LoopForever: true}}, nil
		}
		return src, nil
	}

	suite, err := NewRunner(opts).Run(tinyDesigns())
	if err != nil {
		t.Fatalf("keep-going run failed outright: %v", err)
	}

	var pe *PanicError
	if a := appByName(t, suite, "tiny-1"); !errors.As(a.Err, &pe) {
		t.Errorf("tiny-1 err = %v, want *PanicError", a.Err)
	}
	if a := appByName(t, suite, "tiny-2"); !errors.Is(a.Err, context.DeadlineExceeded) {
		t.Errorf("tiny-2 err = %v, want deadline exceeded", a.Err)
	}
	for _, name := range []string{"tiny-0", "tiny-3"} {
		a := appByName(t, suite, name)
		if a.Err != nil || len(a.Results) != 2 {
			t.Errorf("%s: err=%v results=%d, want clean run", name, a.Err, len(a.Results))
		}
	}
	joined := suite.Err()
	if joined == nil {
		t.Fatal("suite.Err() = nil with two failed apps")
	}
	for _, frag := range []string{"tiny-1", "tiny-2", "panic"} {
		if !strings.Contains(joined.Error(), frag) {
			t.Errorf("suite error %q missing %q", joined, frag)
		}
	}
	if got := suite.Gains("b1k", "b256"); len(got) != 2 {
		t.Errorf("Gains covered %d apps, want 2 (failed apps skipped)", len(got))
	}
	if got := suite.MPKIReductions("b1k", "b256"); len(got) != 2 {
		t.Errorf("MPKIReductions covered %d apps, want 2", len(got))
	}
	total := 0
	for _, idx := range suite.ByCategory() {
		total += len(idx)
	}
	if total != 2 {
		t.Errorf("ByCategory covered %d apps, want 2", total)
	}
	if rows := suite.Export(); len(rows) != 4 {
		t.Errorf("Export produced %d rows, want 4 (2 apps x 2 designs)", len(rows))
	}
}

func TestFailFastPanicInDesignNew(t *testing.T) {
	opts := tinyOpts(tinyCatalog(1))
	bad := Design{Name: "boom", New: func() (btb.TargetPredictor, error) {
		panic("constructor exploded")
	}}
	suite, err := NewRunner(opts).Run([]Design{bad})
	if suite != nil || err == nil {
		t.Fatalf("fail-fast run = (%v, %v), want (nil, error)", suite, err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if !strings.Contains(err.Error(), "design boom") || len(pe.Stack) == 0 {
		t.Errorf("panic not attributed: %v (stack %d bytes)", err, len(pe.Stack))
	}
}

// panickyBTB panics during Lookup after a few calls, modelling a predictor
// bug that only trips on a live trace.
type panickyBTB struct {
	btb.TargetPredictor
	calls int
}

func (p *panickyBTB) Lookup(pc addr.VA) btb.Lookup {
	p.calls++
	if p.calls > 100 {
		panic("predictor state corrupted")
	}
	return p.TargetPredictor.Lookup(pc)
}

func TestKeepGoingPanicInPredictor(t *testing.T) {
	opts := tinyOpts(tinyCatalog(2))
	opts.KeepGoing = true
	designs := []Design{
		BaselineDesign("b256", 256),
		{Name: "panicky", New: func() (btb.TargetPredictor, error) {
			inner, err := btb.NewBaseline(btb.BaselineConfig{Entries: 256})
			if err != nil {
				return nil, err
			}
			return &panickyBTB{TargetPredictor: inner}, nil
		}},
	}
	suite, err := NewRunner(opts).Run(designs)
	if suite == nil {
		t.Fatalf("no suite returned (err=%v)", err)
	}
	for i := range suite.Apps {
		a := &suite.Apps[i]
		var pe *PanicError
		if !errors.As(a.Err, &pe) {
			t.Errorf("%s: err = %v, want *PanicError", a.App.Name, a.Err)
		}
		if !strings.Contains(a.Err.Error(), "design panicky") {
			t.Errorf("%s: panic not attributed to design: %v", a.App.Name, a.Err)
		}
		// The design that ran before the panicking one survives.
		if a.Results["b256"] == nil {
			t.Errorf("%s: clean design's result was discarded", a.App.Name)
		}
	}
	if err == nil {
		t.Error("want all-apps-failed error when every app fails")
	}
}

// failNthOpen fails only its n-th reader. With one worker,
// reader opens within an app are strictly ordered — warmup pass first,
// then one per design cell in design order — so n selects exactly which
// stage fails. Tests using it pin Workers to 1: under parallel cells the
// open order is scheduling-dependent. opens is not synchronized for the
// same reason.
type failNthOpen struct {
	src   trace.Source
	n     int
	opens int
}

func (f *failNthOpen) Name() string { return f.src.Name() }
func (f *failNthOpen) Open() trace.Reader {
	f.opens++
	if f.opens == f.n {
		return &trace.FaultReader{R: f.src.Open(), Plan: trace.FaultPlan{FailAt: 10}}
	}
	return f.src.Open()
}

// TestNonRetryableFailureIsNotRetried: a read fault fails its app, which
// keeps the error and no results.
func TestNonRetryableFailureIsNotRetried(t *testing.T) {
	cat := tinyCatalog(1)
	opts := tinyOpts(cat)
	opts.KeepGoing = true
	opts.BuildTrace = func(app workload.Config, total uint64) (trace.Source, error) {
		src, err := buildSource(app, total)
		if err != nil {
			return nil, err
		}
		return &trace.FaultSource{Src: src, Plan: trace.FaultPlan{TruncateAt: 10}}, nil
	}
	suite, _ := NewRunner(opts).Run(tinyDesigns())
	a := &suite.Apps[0]
	if !errors.Is(a.Err, io.ErrUnexpectedEOF) || !a.Started || len(a.Results) != 0 {
		t.Errorf("started=%v err=%v results=%d, want a started app failed by the truncation",
			a.Started, a.Err, len(a.Results))
	}
}

func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := tinyOpts(tinyCatalog(3))
	_, err := NewRunner(opts).RunContext(ctx, tinyDesigns())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestCheckpointResumeSkipsCompletedApps(t *testing.T) {
	cat := tinyCatalog(3)
	path := filepath.Join(t.TempDir(), "suite.ckpt")

	// Run 1: tiny-1's reader panics; the two clean apps land in the
	// checkpoint.
	opts := tinyOpts(cat)
	opts.KeepGoing = true
	opts.CheckpointPath = path
	opts.BuildTrace = func(app workload.Config, total uint64) (trace.Source, error) {
		src, err := buildSource(app, total)
		if err != nil {
			return nil, err
		}
		if app.Name == "tiny-1" {
			return &trace.FaultSource{Src: src, Plan: trace.FaultPlan{PanicAt: 5}}, nil
		}
		return src, nil
	}
	suite1, err := NewRunner(opts).Run(tinyDesigns())
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	if appByName(t, suite1, "tiny-1").Err == nil {
		t.Fatal("run 1: tiny-1 should have failed")
	}
	wantIPC := suite1.Apps[0].Results["b256"].IPC()

	// Run 2: fault removed; only the failed app may be rebuilt.
	var (
		mu     sync.Mutex
		builds = map[string]int{}
	)
	opts2 := tinyOpts(cat)
	opts2.KeepGoing = true
	opts2.CheckpointPath = path
	opts2.BuildTrace = func(app workload.Config, total uint64) (trace.Source, error) {
		mu.Lock()
		builds[app.Name]++
		mu.Unlock()
		return buildSource(app, total)
	}
	suite2, err := NewRunner(opts2).Run(tinyDesigns())
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	if got := suite2.Err(); got != nil {
		t.Fatalf("run 2 suite errors: %v", got)
	}
	if len(builds) != 1 || builds["tiny-1"] != 1 {
		t.Errorf("run 2 rebuilt %v, want only tiny-1 once (completed apps must not re-simulate)", builds)
	}
	for _, name := range []string{"tiny-0", "tiny-2"} {
		a := appByName(t, suite2, name)
		if !a.Skipped || a.Started || len(a.Results) != 2 {
			t.Errorf("%s: skipped=%v started=%v results=%d, want checkpoint restore", name, a.Skipped, a.Started, len(a.Results))
		}
	}
	a := appByName(t, suite2, "tiny-1")
	if a.Skipped || a.Err != nil || len(a.Results) != 2 {
		t.Errorf("tiny-1: skipped=%v err=%v results=%d, want fresh successful run", a.Skipped, a.Err, len(a.Results))
	}
	if got := suite2.Apps[0].Results["b256"].IPC(); got != wantIPC {
		t.Errorf("restored IPC %v differs from original %v", got, wantIPC)
	}
	if got := suite2.Gains("b1k", "b256"); len(got) != 3 {
		t.Errorf("run 2 gains cover %d apps, want 3", len(got))
	}
}

// A partially-failed app checkpoints the designs that did complete and
// only re-runs the missing ones on resume.
func TestCheckpointPartialApp(t *testing.T) {
	cat := tinyCatalog(1)
	path := filepath.Join(t.TempDir(), "partial.ckpt")

	opts := tinyOpts(cat)
	opts.KeepGoing = true
	opts.CheckpointPath = path
	opts.Workers = 1 // deterministic open order: warmup, b256, b1k
	var (
		mu sync.Mutex
		fs *failNthOpen
	)
	opts.BuildTrace = func(app workload.Config, total uint64) (trace.Source, error) {
		mu.Lock()
		defer mu.Unlock()
		if fs == nil {
			src, err := buildSource(app, total)
			if err != nil {
				return nil, err
			}
			fs = &failNthOpen{src: src, n: 3}
		}
		return fs, nil
	}
	suite, _ := NewRunner(opts).Run(tinyDesigns()) // 2nd design fails
	if a := &suite.Apps[0]; a.Err == nil || len(a.Results) != 1 {
		t.Fatalf("setup: err=%v results=%d, want 1 completed design and an error", a.Err, len(a.Results))
	}

	ck, err := LoadCheckpoint(path, CheckpointMeta{TotalInstrs: opts.TotalInstrs, WarmupInstrs: opts.WarmupInstrs})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ck.Done("tiny-0", "b256"); !ok {
		t.Fatal("completed design missing from checkpoint")
	}
	if _, ok := ck.Done("tiny-0", "b1k"); ok {
		t.Fatal("failed design present in checkpoint")
	}

	// Resume with a clean builder: only the missing design runs, so the
	// source is opened exactly once.
	opts2 := tinyOpts(cat)
	opts2.CheckpointPath = path
	var opens int
	opts2.BuildTrace = func(app workload.Config, total uint64) (trace.Source, error) {
		src, err := buildSource(app, total)
		if err != nil {
			return nil, err
		}
		opens++
		return &trace.FaultSource{Src: src}, nil
	}
	suite2, err := NewRunner(opts2).Run(tinyDesigns())
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	a := &suite2.Apps[0]
	if a.Err != nil || len(a.Results) != 2 || a.Skipped {
		t.Errorf("resume: err=%v results=%d skipped=%v", a.Err, len(a.Results), a.Skipped)
	}
	if opens != 1 {
		t.Errorf("resume built the trace %d times, want 1", opens)
	}
}

func TestCharacterizeSuiteKeepGoing(t *testing.T) {
	cat := tinyCatalog(3)
	opts := tinyOpts(cat)
	opts.KeepGoing = true
	opts.BuildTrace = func(app workload.Config, total uint64) (trace.Source, error) {
		if app.Name == "tiny-1" {
			return nil, fmt.Errorf("injected build failure")
		}
		return buildSource(app, total)
	}
	r := NewRunner(opts)
	chars, err := r.CharacterizeSuite()
	if err != nil {
		t.Fatalf("keep-going characterize failed: %v", err)
	}
	if len(chars) != 2 {
		t.Fatalf("characterized %d apps, want 2", len(chars))
	}
	if r.Err() == nil || !strings.Contains(r.Err().Error(), "tiny-1") {
		t.Errorf("runner did not aggregate the failure: %v", r.Err())
	}
}

// A real experiment report over a keep-going suite with one failed app
// must complete: every aggregation that loops suite.Apps directly has to
// skip the failed app instead of dereferencing its missing results. The
// apps arrive in reverse category order, and the per-category rows must
// still come out in category order.
func TestKeepGoingExperimentReport(t *testing.T) {
	for _, id := range []string{"fig1", "fig10"} {
		t.Run(id, func(t *testing.T) {
			cat := tinyCatalog(4)
			for i := range cat {
				cat[i].Category = workload.Category(workload.NumCategories - 1 - i)
			}
			opts := tinyOpts(cat)
			opts.KeepGoing = true
			opts.BuildTrace = func(app workload.Config, total uint64) (trace.Source, error) {
				if app.Name == "tiny-1" {
					return nil, fmt.Errorf("injected build failure")
				}
				return buildSource(app, total)
			}
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("experiment %s missing", id)
			}
			r := NewRunner(opts)
			var buf strings.Builder
			if err := e.Run(r, &buf); err != nil {
				t.Fatalf("%s report failed: %v", id, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s wrote an empty report", id)
			}
			if r.Err() == nil || !strings.Contains(r.Err().Error(), "tiny-1") {
				t.Errorf("failure not aggregated on the runner: %v", r.Err())
			}
			var rows []string
			for _, line := range strings.Split(buf.String(), "\n") {
				if f := strings.Fields(line); len(f) > 0 && slices.Contains([]string{"Server", "Browser", "BP", "Personal"}, f[0]) {
					rows = append(rows, f[0])
				}
			}
			if want := []string{"Server", "Browser", "Personal"}; !slices.Equal(rows, want) {
				t.Errorf("%s category rows %v, want %v\n%s", id, rows, want, buf.String())
			}
		})
	}
}

// Apps cancelled while still queued are interruptions, not failures:
// Started stays false, Suite.Err stays clean, and the interruption surfaces
// as RunContext's returned error.
func TestCancelledQueuedAppsAreNotFailures(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := tinyOpts(tinyCatalog(3))
	opts.KeepGoing = true
	r := NewRunner(opts)
	suite, err := r.RunContext(ctx, tinyDesigns())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i := range suite.Apps {
		a := &suite.Apps[i]
		if !a.Unstarted() || a.Started {
			t.Errorf("%s: unstarted=%v started=%v err=%v, want queued-cancelled marker",
				a.App.Name, a.Unstarted(), a.Started, a.Err)
		}
	}
	if got := suite.Err(); got != nil {
		t.Errorf("Suite.Err() = %v, want nil (no app actually failed)", got)
	}
	if got := r.Err(); got != nil {
		t.Errorf("Runner.Err() = %v, want nil", got)
	}
}

// Suite.OK returns only apps holding every named design's result.
func TestSuiteOK(t *testing.T) {
	full := AppResult{App: workload.Config{Name: "full"}, Results: map[string]*core.Result{"a": {}, "b": {}}}
	partial := AppResult{App: workload.Config{Name: "partial"}, Results: map[string]*core.Result{"a": {}}}
	failed := AppResult{App: workload.Config{Name: "failed"},
		Results: map[string]*core.Result{"a": {}, "b": {}}, Err: errors.New("boom")}
	s := &Suite{Apps: []AppResult{full, partial, failed, {}}}
	if got := s.OK("a", "b"); len(got) != 1 || got[0].App.Name != "full" {
		t.Errorf("OK(a,b) = %d apps, want just full", len(got))
	}
	if got := s.OK("a"); len(got) != 2 {
		t.Errorf("OK(a) = %d apps, want full and partial", len(got))
	}
	// No designs named: every non-failed app, including empty ones.
	if got := s.OK(); len(got) != 3 {
		t.Errorf("OK() = %d apps, want 3 (failed app excluded)", len(got))
	}
	if r := failed.Result("a"); r == nil {
		t.Error("Result must still expose a failed app's partial results")
	}
	var zero AppResult
	if r := zero.Result("a"); r != nil {
		t.Error("zero-value AppResult returned a result")
	}
}

// A zero-value / failed AppResult must never contribute phantom data to
// suite aggregations, even with a nil Results map.
func TestAggregationsSkipFailedApps(t *testing.T) {
	good := AppResult{App: workload.Config{Name: "good", Category: workload.Server}}
	// Leave good's results empty too: Gains requires both designs present.
	s := &Suite{Apps: []AppResult{
		good,
		{App: workload.Config{Name: "bad", Category: workload.Browser}, Err: errors.New("boom")},
		{}, // zero value, as the old runner used to leave behind
	}}
	if g := s.Gains("a", "b"); len(g) != 0 {
		t.Errorf("Gains = %v, want empty", g)
	}
	if m := s.MPKIReductions("a", "b"); len(m) != 0 {
		t.Errorf("MPKIReductions = %v, want empty", m)
	}
	byCat := s.ByCategory()
	if _, ok := byCat[workload.Browser]; ok {
		t.Error("ByCategory included a failed app")
	}
	// The healthy app and the zero-value app (whose zero Category is
	// Server) are grouped; only the failed app is dropped.
	if n := len(byCat[workload.Server]); n != 2 {
		t.Errorf("Server category has %d apps, want 2", n)
	}
}

// Package experiments defines one reproducible experiment per table and
// figure in the paper's evaluation, and the shared machinery to run the
// 102-application suite across BTB designs.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"repro/internal/btb"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Options control suite scale and resilience policy. The defaults run the
// full 102-app catalog with a 1.5M-instruction warmup and a 2M-instruction
// measured window per app (the paper warms 100M+ and measures 10M+ on its
// native simulator; windows here scale with the synthetic footprints).
type Options struct {
	// Apps caps the number of applications (0 = all). Subsets are sampled
	// evenly across the catalog so every category stays represented.
	Apps int
	// TotalInstrs is the trace length per app.
	TotalInstrs uint64
	// WarmupInstrs is the unmeasured prefix.
	WarmupInstrs uint64
	// SelfCheckEvery, when non-zero, deep-audits every design's internal
	// invariants every N records during simulation (core.Config.AuditEvery)
	// and fails the (app, design) run on the first violation.
	SelfCheckEvery uint64
	// Workers sizes the pool that executes every unit of heavy work —
	// trace builds, shared warmup passes, and (app, design) simulation
	// cells (0 = GOMAXPROCS). Cell outcomes are reduced in fixed suite
	// order, so reports, goldens, checkpoints and Suite.Err are
	// bit-identical for every worker count.
	Workers int
	// ColdStart disables warm-state sharing: every (app, design) cell then
	// simulates its whole trace, frontend and BTB, from cold, as the
	// sequential runner always did. By default one frontend pass per app
	// (caches, direction predictor, RAS) is shared across all compatible
	// designs, which replay only the BTB half (see core.WarmState); the
	// differential oracle and TestWarmCloneOracle prove the shared path
	// bit-identical, so this knob exists for cross-checking, not
	// correctness.
	ColdStart bool

	// AppTimeout bounds one app's wall-clock budget across all its designs
	// (0 = no deadline). A timed-out app is recorded as failed with
	// context.DeadlineExceeded.
	AppTimeout time.Duration

	// KeepGoing aggregates failures instead of failing fast: Run returns a
	// Suite holding every completed app, each failed app carries its Err,
	// and Suite.Err joins them. Without it the first failure cancels the
	// remaining apps and Run returns that error alone.
	KeepGoing bool
	// CheckpointPath enables checkpoint/resume: completed (app, design)
	// results are atomically persisted after each app, and a later run
	// with the same path skips them. Resume is refused when the window
	// options or a shared design's configuration digest changed since the
	// checkpoint was written (stale results must not mix in).
	CheckpointPath string

	// Catalog overrides the application catalog (nil = workload.Catalog()).
	// Tests use tiny catalogs here.
	Catalog []workload.Config
	// BuildTrace overrides trace construction (nil = workload.Build).
	// Tests inject trace.FaultSource wrappers here.
	BuildTrace func(cfg workload.Config, totalInstrs uint64) (trace.Source, error)
	// Log receives progress and failure lines as the suite runs (nil =
	// discard). Commands point it at stderr.
	Log io.Writer
}

// DefaultOptions returns the full-suite configuration.
func DefaultOptions() Options {
	return Options{
		TotalInstrs:  3_500_000,
		WarmupInstrs: 1_500_000,
	}
}

// QuickOptions returns a reduced configuration for smoke tests and quick
// looks: 16 apps, shorter windows.
func QuickOptions() Options {
	return Options{
		Apps:         16,
		TotalInstrs:  1_200_000,
		WarmupInstrs: 500_000,
	}
}

func (o Options) normalized() Options {
	d := DefaultOptions()
	if o.TotalInstrs == 0 {
		o.TotalInstrs = d.TotalInstrs
	}
	if o.WarmupInstrs == 0 {
		o.WarmupInstrs = d.WarmupInstrs
	}
	if o.WarmupInstrs >= o.TotalInstrs {
		o.WarmupInstrs = o.TotalInstrs / 2
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Design names a BTB configuration under test: a fresh predictor per run
// plus an optional core-config hook (perfect direction, ITTAGE, ...).
type Design struct {
	Name string
	// New builds a fresh predictor (stateful structures must not be shared
	// across runs).
	New func() (btb.TargetPredictor, error)
	// Mod optionally adjusts the core configuration for this design.
	Mod func(*core.Config)
}

// AppResult holds one application's runs across all designs, or the
// reason it has none.
type AppResult struct {
	App      workload.Config
	Results  map[string]*core.Result
	ByDesign []string // design order, for deterministic iteration

	// Err is non-nil when the app failed (build error, run error, panic,
	// or deadline); Results then holds whatever designs completed before
	// the failure. Cancelling a sweep also manufactures per-app context
	// errors: apps still queued stay Unstarted and are excluded from
	// Suite.Err, while apps cancelled mid-simulation keep their context
	// error as a (partial-run) failure.
	Err error
	// Started marks an app whose simulation began (false for apps
	// restored wholesale from a checkpoint).
	Started bool
	// Skipped marks an app whose every design was restored from the
	// checkpoint, so nothing was re-simulated.
	Skipped bool
}

// Failed reports whether the app produced an error instead of a full
// result set.
func (a *AppResult) Failed() bool { return a.Err != nil }

// Unstarted reports whether the app was cancelled while still queued: its
// simulation never began and Err is a bare context error. Such apps were
// interrupted, not broken, so Suite.Err excludes them; RunContext reports
// the interruption via the context's error instead.
func (a *AppResult) Unstarted() bool {
	return !a.Started && !a.Skipped &&
		(errors.Is(a.Err, context.Canceled) || errors.Is(a.Err, context.DeadlineExceeded))
}

// Result returns the app's result for design, or nil when the app never
// completed it (failure, cancellation, or a design absent from the run).
// Safe on zero-value AppResults.
func (a *AppResult) Result(design string) *core.Result { return a.Results[design] }

// Suite is the result of running designs over the app catalog.
type Suite struct {
	Apps    []AppResult
	Designs []string
}

// Err joins every per-app failure (nil when the whole suite succeeded).
// Apps cancelled before they started (see Unstarted) are excluded:
// an interrupted sweep should not report the queued remainder as broken
// apps alongside the one real failure that may have cancelled it.
func (s *Suite) Err() error {
	var errs []error
	for i := range s.Apps {
		if a := &s.Apps[i]; a.Failed() && !a.Unstarted() {
			errs = append(errs, fmt.Errorf("app %s: %w", a.App.Name, a.Err))
		}
	}
	return errors.Join(errs...)
}

// OK returns the apps that completed every named design. Failed apps may
// carry partial result maps and cancelled-before-start apps carry none,
// so report code iterating a suite must go through OK (or Result plus a
// nil check) rather than indexing Results and calling methods on the
// looked-up pointer.
func (s *Suite) OK(designs ...string) []*AppResult {
	var out []*AppResult
	for i := range s.Apps {
		a := &s.Apps[i]
		if a.Failed() {
			continue
		}
		complete := true
		for _, d := range designs {
			if a.Results[d] == nil {
				complete = false
				break
			}
		}
		if complete {
			out = append(out, a)
		}
	}
	return out
}

// Failed returns the indices of failed apps, including apps cancelled
// while still queued (use Unstarted to tell the two apart).
func (s *Suite) Failed() []int {
	var out []int
	for i := range s.Apps {
		if s.Apps[i].Failed() {
			out = append(out, i)
		}
	}
	return out
}

// PanicError records a panic recovered from one (app, design) run,
// preserving the panic value and stack so a crash in one predictor is a
// per-app failure, not a dead process. A panic core.RunContext forwards
// from its frontend goroutine keeps its value; core writes that
// goroutine's stack to stderr, and Stack is the cell's own.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (p *PanicError) Error() string { return fmt.Sprintf("panic: %v", p.Value) }

// pool is the shared work-stealing executor: a fixed set of workers
// draining one unbuffered job queue. Every unit of heavy work in a suite
// run — trace builds, shared warmup passes, (app, design) simulation
// cells — is a job, so the jobs running at once are bounded by the worker
// count no matter how many apps are in flight. A cold cell's core.RunContext
// runs its frontend half on a second goroutine (DESIGN.md §5.2), so CPU
// concurrency can reach twice the worker count. Jobs are leaves: a job
// never submits another job and waits on it, so the pool cannot deadlock.
// With one worker, jobs run strictly in submission order, which makes the
// Workers=1 schedule the sequential runner's schedule exactly.
type pool struct {
	jobs chan func()
	wg   sync.WaitGroup
}

func newPool(workers int) *pool {
	p := &pool{jobs: make(chan func())}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for f := range p.jobs {
				f()
			}
		}()
	}
	return p
}

// submit enqueues f; it blocks until a worker accepts the job. That
// backpressure is the pool's contract: workers drain jobs until close, so
// the send always completes.
func (p *pool) submit(f func()) {
	p.jobs <- f
}

// run executes f on a worker and waits for it to finish.
func (p *pool) run(f func()) {
	done := make(chan struct{})
	p.jobs <- func() { defer close(done); f() }
	<-done
}

// close shuts the queue and waits for the workers to drain.
func (p *pool) close() {
	close(p.jobs)
	p.wg.Wait()
}

// Runner executes suites.
type Runner struct {
	Opts Options

	ctx context.Context // base context for Run; nil = Background

	mu sync.Mutex // guards failures
	// failures accumulates across Run/CharacterizeSuite calls. Only the
	// goroutine that called Run or CharacterizeSuite appends to it, via
	// noteFailures, once that call's workers have finished.
	failures []error
}

// NewRunner builds a runner with normalized options.
func NewRunner(opts Options) *Runner {
	return &Runner{Opts: opts.normalized()}
}

// WithContext sets the base context used by Run and CharacterizeSuite
// (experiment Run hooks receive only the Runner, so commands cancel whole
// experiments through here). It returns r for chaining.
func (r *Runner) WithContext(ctx context.Context) *Runner {
	r.ctx = ctx
	return r
}

func (r *Runner) baseCtx() context.Context {
	if r.ctx != nil {
		return r.ctx
	}
	return context.Background()
}

func (r *Runner) logf(format string, args ...any) {
	if r.Opts.Log != nil {
		fmt.Fprintf(r.Opts.Log, format+"\n", args...)
	}
}

// noteFailures records per-app failures for Err.
func (r *Runner) noteFailures(errs ...error) {
	r.mu.Lock()
	r.failures = append(r.failures, errs...)
	r.mu.Unlock()
}

// Err joins every app failure the runner has tolerated so far (keep-going
// runs return partial suites with a nil error; commands surface this to
// decide the exit code).
func (r *Runner) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return errors.Join(r.failures...)
}

// SuiteApps returns the catalog subset selected by the options.
func (r *Runner) SuiteApps() []workload.Config {
	apps := r.Opts.Catalog
	if apps == nil {
		apps = workload.Catalog()
	}
	if r.Opts.Apps <= 0 || r.Opts.Apps >= len(apps) {
		return apps
	}
	// Even sampling keeps all categories represented.
	out := make([]workload.Config, 0, r.Opts.Apps)
	stride := float64(len(apps)) / float64(r.Opts.Apps)
	for i := 0; i < r.Opts.Apps; i++ {
		out = append(out, apps[int(float64(i)*stride)])
	}
	return out
}

// buildTrace builds (or injects) the app's trace source.
func (r *Runner) buildTrace(app workload.Config) (trace.Source, error) {
	if r.Opts.BuildTrace != nil {
		return r.Opts.BuildTrace(app, r.Opts.TotalInstrs)
	}
	_, tr, err := workload.Build(app, r.Opts.TotalInstrs)
	return tr, err
}

// Run executes every design over the selected apps with the runner's base
// context. See RunContext.
func (r *Runner) Run(designs []Design) (*Suite, error) {
	return r.RunContext(r.baseCtx(), designs)
}

// RunContext executes every design over the selected apps on a shared
// pool of Opts.Workers workers. Traces are built once per app and reused
// across that app's design cells, then discarded (the full suite's traces
// would not fit in memory simultaneously). When the base configuration
// permits (see core.WarmupCompatible), the frontend half of the core is
// also simulated once per app, over the whole run, and each compatible
// design's cell replays only the BTB half instead of re-simulating both.
//
// Every (app, design) pair is an independent job, so designs of one app
// run concurrently; cell outcomes are reduced in fixed design order, which
// keeps results, reports, checkpoints and error text bit-identical for
// every worker count.
//
// Each app runs once and isolated: panics become per-app errors and
// AppTimeout bounds its wall clock. Without KeepGoing the first failure
// cancels the remaining apps and is returned alone; with KeepGoing every
// app runs, failures land in AppResult.Err (joined by Suite.Err), and
// RunContext errors only when the context is cancelled or no app
// succeeded at all.
// With CheckpointPath set, completed results are persisted after each app
// and already-completed (app, design) pairs are skipped on resume.
func (r *Runner) RunContext(ctx context.Context, designs []Design) (*Suite, error) {
	apps := r.SuiteApps()
	suite := &Suite{Apps: make([]AppResult, len(apps))}
	for _, d := range designs {
		suite.Designs = append(suite.Designs, d.Name)
	}

	var ckpt *Checkpoint
	if r.Opts.CheckpointPath != "" {
		var err error
		ckpt, err = LoadCheckpoint(r.Opts.CheckpointPath, CheckpointMeta{
			TotalInstrs:  r.Opts.TotalInstrs,
			WarmupInstrs: r.Opts.WarmupInstrs,
			Designs:      DesignDigests(designs),
		})
		if err != nil {
			return nil, err
		}
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	workers := newPool(r.Opts.Workers)
	defer workers.close()

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		firstEr error
	)
	// appSem bounds how many apps are in flight at once. Orchestrator
	// goroutines below do no heavy work themselves — they feed jobs to the
	// pool — but capping them keeps per-app trace memory bounded and leaves
	// apps beyond the cap Unstarted when the run is cancelled early.
	appSem := make(chan struct{}, r.Opts.Workers)
	for i := range apps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			select {
			case appSem <- struct{}{}:
			case <-runCtx.Done():
				mu.Lock()
				suite.Apps[i] = AppResult{App: apps[i], Err: runCtx.Err()}
				mu.Unlock()
				return
			}
			// Releasing a held semaphore slot from a buffered channel never blocks.
			defer func() { <-appSem }()

			res := r.runApp(runCtx, workers, apps[i], designs, ckpt)
			if res.Err == nil && !res.Skipped {
				r.logf("runner: app %s ok (%d designs)", apps[i].Name, len(res.Results))
			}
			if res.Err != nil {
				r.logf("runner: app %s FAILED: %v", apps[i].Name, res.Err)
			}
			if ckpt != nil && len(res.Results) > 0 && !res.Skipped {
				if err := ckpt.Record(apps[i].Name, res.Results); err != nil {
					r.logf("runner: checkpoint write failed: %v", err)
					if res.Err == nil {
						res.Err = fmt.Errorf("checkpoint: %w", err)
					}
				}
			}

			mu.Lock()
			defer mu.Unlock()
			suite.Apps[i] = res
			if res.Err != nil && !r.Opts.KeepGoing && firstEr == nil && !res.Unstarted() {
				firstEr = fmt.Errorf("app %s: %w", apps[i].Name, res.Err)
				cancel() // fail fast: stop the rest of the suite
			}
		}(i)
	}
	wg.Wait()

	if firstEr != nil {
		return nil, firstEr
	}
	joined := suite.Err()
	if joined != nil {
		// Note failures before any return below so Runner.Err sees apps
		// that failed for real even when the context was also cancelled.
		r.noteFailures(joined)
	}
	if err := ctx.Err(); err != nil {
		return suite, err
	}
	if joined != nil && len(suite.Failed()) == len(suite.Apps) {
		return suite, fmt.Errorf("all %d apps failed: %w", len(suite.Apps), joined)
	}
	return suite, nil
}

// runApp runs one application across all designs with checkpoint reuse,
// a per-app deadline and panic isolation. It always returns a populated
// AppResult (never a zero value): on failure Err is set and Results holds
// the designs that did complete.
func (r *Runner) runApp(ctx context.Context, workers *pool, app workload.Config, designs []Design, ckpt *Checkpoint) AppResult {
	out := AppResult{App: app, Results: make(map[string]*core.Result, len(designs))}
	restored := make(map[string]bool, len(designs))
	if ckpt != nil {
		for _, d := range designs {
			if res, ok := ckpt.Done(app.Name, d.Name); ok {
				out.Results[d.Name] = res
				restored[d.Name] = true
			}
		}
		if len(out.Results) == len(designs) {
			out.Skipped = true
			for _, d := range designs {
				out.ByDesign = append(out.ByDesign, d.Name)
			}
			r.logf("runner: app %s restored from checkpoint", app.Name)
			return out
		}
	}

	// Cancelled before any work: leave Started false so the app reads as
	// unstarted (see AppResult.Unstarted) rather than failed.
	if err := ctx.Err(); err != nil {
		out.Err = err
		return out
	}

	appCtx := ctx
	if r.Opts.AppTimeout > 0 {
		var cancel context.CancelFunc
		appCtx, cancel = context.WithTimeout(ctx, r.Opts.AppTimeout)
		defer cancel()
	}

	out.Started = true
	if out.Err = r.simulate(appCtx, workers, app, designs, out.Results); out.Err != nil {
		pruneResults(designs, restored, out.Results)
		return out
	}
	for _, d := range designs {
		out.ByDesign = append(out.ByDesign, d.Name)
	}
	return out
}

// pruneResults restores the sequential runner's failure semantics on a
// parallel result map. Cells run concurrently, so when design k fails,
// designs after k may already have succeeded — results a sequential run
// (which stops at the first failing design) would never have produced.
// Dropping every non-checkpointed success past the first missing design
// makes the surviving result set — and hence checkpoint files and reports
// — bit-identical for every worker count.
func pruneResults(designs []Design, restored map[string]bool, done map[string]*core.Result) {
	minMissing := len(designs)
	for i := range designs {
		if _, ok := done[designs[i].Name]; !ok {
			minMissing = i
			break
		}
	}
	for i := minMissing + 1; i < len(designs); i++ {
		if name := designs[i].Name; !restored[name] {
			delete(done, name)
		}
	}
}

// simulate builds the app's trace, optionally runs the shared warmup
// pass, then fans every design not already in done (filled in by
// checkpoint restore) out to the worker pool as one simulation cell each.
// Cell outcomes are reduced in design order: every success is recorded
// in done, and the error of the earliest failing design is returned — the
// same design a sequential run would have stopped at. Panics anywhere
// below — workload generation, the warmup pass, predictor construction,
// the core models — are recovered into *PanicError inside the job that
// hit them.
func (r *Runner) simulate(ctx context.Context, workers *pool, app workload.Config, designs []Design, done map[string]*core.Result) error {
	if err := ctx.Err(); err != nil {
		return err
	}

	var (
		tr       trace.Source
		buildErr error
	)
	workers.run(func() {
		defer func() {
			if v := recover(); v != nil {
				buildErr = &PanicError{Value: v, Stack: debug.Stack()}
			}
		}()
		tr, buildErr = r.buildTrace(app)
	})
	if buildErr != nil {
		return fmt.Errorf("build: %w", buildErr)
	}

	var pending []*Design
	for i := range designs {
		if _, ok := done[designs[i].Name]; !ok {
			pending = append(pending, &designs[i])
		}
	}

	// Shared frontend pass: one pass over the run, replayed by every
	// compatible cell. Only worth a reader open when at least two pending
	// designs can reuse it — below that the pass is pure overhead, and
	// skipping it keeps single-design resumes at one open.
	var warm *core.WarmState
	if !r.Opts.ColdStart && r.Opts.WarmupInstrs > 0 && r.warmEligible(app, pending) >= 2 {
		var warmErr error
		workers.run(func() {
			defer func() {
				if v := recover(); v != nil {
					warmErr = &PanicError{Value: v, Stack: debug.Stack()}
				}
			}()
			warm, warmErr = core.WarmupContext(ctx, r.baseConfig(app), tr)
		})
		if warmErr != nil {
			return fmt.Errorf("warmup: %w", warmErr)
		}
	}

	type cell struct {
		res *core.Result
		err error
	}
	outs := make([]cell, len(pending))
	var wg sync.WaitGroup
	for k := range pending {
		k := k
		wg.Add(1)
		workers.submit(func() {
			defer wg.Done()
			outs[k].res, outs[k].err = r.runOne(ctx, app, tr, pending[k], warm)
		})
	}
	// Bounded: every submitted job runs and runOne returns promptly on ctx cancellation.
	wg.Wait()

	var firstErr error
	for k := range pending {
		if outs[k].err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("design %s: %w", pending[k].Name, outs[k].err)
			}
			continue
		}
		done[pending[k].Name] = outs[k].res
	}
	return firstErr
}

// baseConfig is the design-independent core configuration every cell of
// app starts from; Design.Mod specializes a copy per cell.
func (r *Runner) baseConfig(app workload.Config) core.Config {
	return core.Config{
		Params:       core.Icelake(),
		BackendCPI:   app.BackendCPI,
		WarmupInstrs: r.Opts.WarmupInstrs,
		AuditEvery:   r.Opts.SelfCheckEvery,
	}
}

// warmEligible counts the pending designs whose modified configuration
// can reuse a shared warm state for app.
func (r *Runner) warmEligible(app workload.Config, pending []*Design) int {
	n := 0
	for _, d := range pending {
		if r.probeWarm(app, d) {
			n++
		}
	}
	return n
}

// probeWarm reports whether d's configuration passes the warm-state
// compatibility gate. A panicking Mod reads as incompatible here; the
// design's own cell will surface the panic as that design's error.
func (r *Runner) probeWarm(app workload.Config, d *Design) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	base := r.baseConfig(app)
	cfg := base
	if d.Mod != nil {
		d.Mod(&cfg)
	}
	return core.WarmupCompatible(base, cfg) == nil
}

// runOne simulates one (app, design) cell. Panics in the predictor
// constructor, the core models or the trace reader are recovered here so
// the returned error is attributed to the design that crashed. Cells
// whose configuration passes the warm gate, under either core model,
// replay the shared frontend pass's log through the design-private back
// half alone; everything else — another frontend geometry or direction
// predictor, wrong-path pollution, a cold-start run — simulates from
// scratch.
func (r *Runner) runOne(ctx context.Context, app workload.Config, tr trace.Source, d *Design, warm *core.WarmState) (_ *core.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	tp, err := d.New()
	if err != nil {
		return nil, err
	}
	cfg := r.baseConfig(app)
	cfg.BTB = tp
	if d.Mod != nil {
		d.Mod(&cfg)
	}
	if warm != nil && warm.Compatible(cfg) == nil {
		return core.RunWarmContext(ctx, cfg, tr, warm)
	}
	return core.RunContext(ctx, cfg, tr)
}

// Gains collects per-app relative IPC gains of design vs base. Failed apps
// are skipped.
func (s *Suite) Gains(design, base string) []float64 {
	var out []float64
	for i := range s.Apps {
		a := &s.Apps[i]
		if a.Failed() {
			continue
		}
		d, b := a.Results[design], a.Results[base]
		if d == nil || b == nil {
			continue
		}
		out = append(out, d.Speedup(b))
	}
	return out
}

// MPKIReductions collects per-app relative BTB-MPKI reductions. Failed
// apps are skipped.
func (s *Suite) MPKIReductions(design, base string) []float64 {
	var out []float64
	for i := range s.Apps {
		a := &s.Apps[i]
		if a.Failed() {
			continue
		}
		d, b := a.Results[design], a.Results[base]
		if d == nil || b == nil {
			continue
		}
		out = append(out, d.MPKIReduction(b))
	}
	return out
}

// ByCategory groups app indices per category. Failed apps are skipped so
// per-category aggregates never average in zero-valued results.
func (s *Suite) ByCategory() map[workload.Category][]int {
	out := make(map[workload.Category][]int)
	for i := range s.Apps {
		if s.Apps[i].Failed() {
			continue
		}
		out[s.Apps[i].App.Category] = append(out[s.Apps[i].App.Category], i)
	}
	// Each slice is sorted on its own, so the map's iteration order
	// cannot show.
	for _, idx := range out {
		sort.Ints(idx)
	}
	return out
}

// sortedCategories returns a ByCategory map's keys in ascending order, so
// per-category report sections always print in the same order.
func sortedCategories(m map[workload.Category][]int) []workload.Category {
	cats := make([]workload.Category, 0, len(m))
	for c := range m {
		cats = append(cats, c)
	}
	sort.Slice(cats, func(i, j int) bool { return cats[i] < cats[j] })
	return cats
}

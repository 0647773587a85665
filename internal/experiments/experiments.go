package experiments

import (
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"sync"

	"repro/internal/analysis"
	"repro/internal/workload"
)

// Experiment reproduces one table or figure of the paper.
type Experiment struct {
	// ID is the handle used by cmd/pdede-experiments (-run fig10).
	ID string
	// Title describes the artifact.
	Title string
	// Paper is the paper's headline result for side-by-side comparison.
	Paper string
	// Run executes the experiment and writes its report.
	Run func(r *Runner, w io.Writer) error
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		expFig1(), expFig3(), expFig4(), expFig5(), expFig6(), expFig7(), expFig8(),
		expFig10(), expFig11a(), expFig11b(), expFig11c(),
		expFig12a(), expFig12b(), expFig12c(),
		expTable2(), expTable4(),
		expSec55(), expSec56(), expSec57(), expSec511(),
	}
}

// Extended returns paper artifacts plus the extension ablations.
func Extended() []Experiment {
	return append(All(), ExtExperiments()...)
}

// ByID locates an experiment (paper artifacts and extensions).
func ByID(id string) (Experiment, bool) {
	for _, e := range Extended() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// AppChar pairs an application with its trace characterization.
type AppChar struct {
	App  workload.Config
	Char *analysis.Characterization
}

// CharacterizeSuite runs the §3 analysis over the selected apps in
// parallel. Each app is panic-isolated like Run; the base context (see
// WithContext) cancels outstanding apps. Without KeepGoing the joined
// per-app errors fail the call; with KeepGoing failed apps are dropped
// from the returned slice and their errors are available via Runner.Err.
func (r *Runner) CharacterizeSuite() ([]AppChar, error) {
	ctx := r.baseCtx()
	apps := r.SuiteApps()
	out := make([]AppChar, len(apps))
	errs := make([]error, len(apps))
	var wg sync.WaitGroup
	sem := make(chan struct{}, r.Opts.Workers)
	for i := range apps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				errs[i] = fmt.Errorf("app %s: %w", apps[i].Name, ctx.Err())
				return
			}
			// Releasing a held semaphore slot from a buffered channel never blocks.
			defer func() { <-sem }()
			c, err := r.characterizeApp(apps[i])
			if err != nil {
				errs[i] = fmt.Errorf("app %s: %w", apps[i].Name, err)
				r.logf("runner: characterize %s FAILED: %v", apps[i].Name, err)
				return
			}
			out[i] = AppChar{App: apps[i], Char: c}
		}(i)
	}
	wg.Wait()
	if joined := errors.Join(errs...); joined != nil {
		if !r.Opts.KeepGoing {
			return nil, joined
		}
		r.noteFailures(joined)
		kept := out[:0]
		for _, c := range out {
			if c.Char != nil {
				kept = append(kept, c)
			}
		}
		out = kept
		if len(out) == 0 {
			return nil, fmt.Errorf("all %d apps failed: %w", len(apps), joined)
		}
	}
	return out, nil
}

// characterizeApp builds and characterizes one app, converting panics into
// errors.
func (r *Runner) characterizeApp(app workload.Config) (_ *analysis.Characterization, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	tr, err := r.buildTrace(app)
	if err != nil {
		return nil, err
	}
	return analysis.Characterize(tr.Open())
}

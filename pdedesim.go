// Package pdedesim is the public API of the PDede reproduction: a
// trace-driven branch-target-buffer simulation toolkit built around the
// MICRO 2021 paper "PDede: Partitioned, Deduplicated, Delta Branch Target
// Buffer".
//
// The package wires together three layers:
//
//   - Workloads — a synthetic application generator calibrated to the
//     paper's branch-population analysis (102-app catalog across four
//     categories), producing deterministic dynamic branch traces.
//   - Designs — BTB micro-architectures implementing TargetPredictor: the
//     conventional baseline, the full-target deduplicated design, PDede in
//     its three variants, a Shotgun-style frontend BTB and a two-level
//     hierarchy.
//   - Core — a cycle-approximate decoupled-frontend core model that turns
//     prediction behaviour into IPC, MPKI and Top-Down-style stall
//     decompositions.
//
// Quick start:
//
//	app, _ := pdedesim.AppByName("Server-oltp-primary")
//	base, _ := pdedesim.Simulate(app, pdedesim.Baseline(4096), pdedesim.DefaultSimOptions())
//	pd, _ := pdedesim.Simulate(app, pdedesim.PDedeMultiEntry(), pdedesim.DefaultSimOptions())
//	fmt.Printf("IPC +%.1f%%\n", 100*pd.Speedup(base))
//
// Every published table and figure has a registered experiment; see
// Experiments and RunExperiment.
package pdedesim

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"repro/internal/analysis"
	"repro/internal/atomicio"
	"repro/internal/btb"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/multilevel"
	"repro/internal/oracle"
	"repro/internal/pdede"
	"repro/internal/shotgun"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Re-exported core types. These aliases are the supported public names;
// the internal packages are implementation detail.
type (
	// App configures one synthetic application.
	App = workload.Config
	// Category is the Table 1 application grouping.
	Category = workload.Category
	// Trace is a replayable in-memory branch trace.
	Trace = trace.Memory
	// TargetPredictor is the interface every BTB design implements.
	TargetPredictor = btb.TargetPredictor
	// Lookup is a BTB probe result.
	Lookup = btb.Lookup
	// Result carries IPC/MPKI/stall metrics for one run.
	Result = core.Result
	// CoreParams are the micro-architectural core parameters.
	CoreParams = core.Params
	// PDedeConfig sizes a PDede BTB.
	PDedeConfig = pdede.Config
	// Characterization holds the §3 trace statistics (Figures 3–8).
	Characterization = analysis.Characterization
	// Experiment reproduces one table/figure.
	Experiment = experiments.Experiment
	// SuiteOptions control experiment suite scale.
	SuiteOptions = experiments.Options
)

// Categories.
const (
	Server               = workload.Server
	Browser              = workload.Browser
	BusinessProductivity = workload.BusinessProductivity
	Personal             = workload.Personal
)

// Catalog returns the 102-application suite mirroring the paper's Table 1.
func Catalog() []App { return workload.Catalog() }

// AppByName finds a catalog application.
func AppByName(name string) (App, error) {
	cfg, ok := workload.CatalogByName(name)
	if !ok {
		return App{}, fmt.Errorf("pdedesim: no catalog app named %q", name)
	}
	return cfg, nil
}

// DefaultApp returns a mid-sized calibrated application configuration to
// customize.
func DefaultApp() App { return workload.Default() }

// LoadApp reads a JSON application configuration (fields missing from the
// file keep their DefaultApp values).
func LoadApp(path string) (App, error) { return workload.LoadConfig(path) }

// BuildTrace synthesizes an application and executes it into a trace of
// approximately totalInstrs instructions.
func BuildTrace(app App, totalInstrs uint64) (*Trace, error) {
	_, tr, err := workload.Build(app, totalInstrs)
	return tr, err
}

// Characterize computes the §3 branch-population statistics of a trace.
func Characterize(tr *Trace) (*Characterization, error) {
	return analysis.Characterize(tr.Open())
}

// --- Design constructors -------------------------------------------------

// Baseline returns the conventional set-associative BTB (§2) with the given
// entry count (the paper's baseline is 4096 ≈ 37.5 KiB).
func Baseline(entries int) func() (TargetPredictor, error) {
	return func() (TargetPredictor, error) {
		return btb.NewBaseline(btb.BaselineConfig{Entries: entries})
	}
}

// PDedeDefault returns the iso-storage PDede-Default design.
func PDedeDefault() func() (TargetPredictor, error) {
	return func() (TargetPredictor, error) { return pdede.New(pdede.DefaultConfig()) }
}

// PDedeMultiTarget returns the PDede-Multi Target design (§4.3.1).
func PDedeMultiTarget() func() (TargetPredictor, error) {
	return func() (TargetPredictor, error) { return pdede.New(pdede.MultiTargetConfig()) }
}

// PDedeMultiEntry returns the PDede-Multi Entry size design (§4.3.1), the
// paper's best performer.
func PDedeMultiEntry() func() (TargetPredictor, error) {
	return func() (TargetPredictor, error) { return pdede.New(pdede.MultiEntryConfig()) }
}

// PDedeCustom builds PDede from an explicit configuration.
func PDedeCustom(cfg PDedeConfig) func() (TargetPredictor, error) {
	return func() (TargetPredictor, error) { return pdede.New(cfg) }
}

// PDedeScaled returns the iso-storage PDede matching a baseline of the
// given entry count (Figure 12 sweeps). variant is 0 (Default), 1
// (MultiTarget) or 2 (MultiEntry).
func PDedeScaled(baselineEntries int, variant int) func() (TargetPredictor, error) {
	return func() (TargetPredictor, error) {
		return pdede.New(pdede.ScaledFromBaseline(baselineEntries, pdede.Variant(variant)))
	}
}

// DedupOnly returns the full-target deduplicated design (Figure 11a's first
// ablation step).
func DedupOnly() func() (TargetPredictor, error) {
	return func() (TargetPredictor, error) { return btb.NewDedupBTB(btb.DedupBTBConfig{}) }
}

// ShotgunBTB returns the Shotgun-style comparison design (§5.10).
func ShotgunBTB() func() (TargetPredictor, error) {
	return func() (TargetPredictor, error) { return shotgun.New(shotgun.DefaultConfig()) }
}

// TwoLevel composes an L0 baseline with a second-level design (§5.9).
func TwoLevel(l0Entries int, l1 func() (TargetPredictor, error)) func() (TargetPredictor, error) {
	return func() (TargetPredictor, error) {
		l0, err := btb.NewBaseline(btb.BaselineConfig{Entries: l0Entries, Ways: 4})
		if err != nil {
			return nil, err
		}
		second, err := l1()
		if err != nil {
			return nil, err
		}
		return multilevel.New(l0, second)
	}
}

// PerfectBTB returns the unbounded upper-bound predictor.
func PerfectBTB() func() (TargetPredictor, error) {
	return func() (TargetPredictor, error) { return btb.NewPerfect(), nil }
}

// --- Simulation -----------------------------------------------------------

// SimOptions configure one simulation run.
type SimOptions struct {
	// Params are the core parameters (zero value: Icelake-like, Table 3).
	Params CoreParams
	// TotalInstrs is the trace length to synthesize.
	TotalInstrs uint64
	// WarmupInstrs are excluded from statistics.
	WarmupInstrs uint64
	// PerfectDirection enables the §5.5 study.
	PerfectDirection bool
	// UsePipelineModel selects the event-timestamped pipeline core model
	// (core.Config.UsePipeline) instead of the analytic runahead model. The
	// two share prediction state and cross-validate each other.
	UsePipelineModel bool
	// AuditEvery, when non-zero, deep-checks the design's internal
	// invariants every N records during simulation and fails the run on the
	// first violation. Zero disables auditing (no measurable overhead).
	AuditEvery uint64
}

// DefaultSimOptions mirrors the experiment harness defaults.
func DefaultSimOptions() SimOptions {
	return SimOptions{
		Params:       core.Icelake(),
		TotalInstrs:  3_500_000,
		WarmupInstrs: 1_500_000,
	}
}

// IcelakeParams returns the Table 3 core configuration.
func IcelakeParams() CoreParams { return core.Icelake() }

// Simulate builds the app's trace and runs it through the design.
func Simulate(app App, design func() (TargetPredictor, error), opts SimOptions) (*Result, error) {
	tr, err := BuildTrace(app, opts.TotalInstrs)
	if err != nil {
		return nil, err
	}
	return SimulateTrace(app, tr, design, opts)
}

// SimulateTrace runs a pre-built trace (reuse it across designs: traces are
// deterministic and replayable).
func SimulateTrace(app App, tr *Trace, design func() (TargetPredictor, error), opts SimOptions) (*Result, error) {
	return SimulateTraceContext(context.Background(), app, tr, design, opts)
}

// SimulateTraceContext is SimulateTrace with cancellation: the simulation
// loop observes ctx, so a deadline or an interrupt ends the run with the
// context's error.
func SimulateTraceContext(ctx context.Context, app App, tr *Trace, design func() (TargetPredictor, error), opts SimOptions) (*Result, error) {
	tp, err := design()
	if err != nil {
		return nil, err
	}
	if opts.Params.FetchWidth == 0 {
		opts.Params = core.Icelake()
	}
	cfg := core.Config{
		Params:           opts.Params,
		BackendCPI:       app.BackendCPI,
		BTB:              tp,
		WarmupInstrs:     opts.WarmupInstrs,
		PerfectDirection: opts.PerfectDirection,
		UsePipeline:      opts.UsePipelineModel,
		AuditEvery:       opts.AuditEvery,
	}
	return core.RunContext(ctx, cfg, tr)
}

// --- Self-checking ---------------------------------------------------------

// DiffReport aggregates one differential run of a design against its
// unbounded reference oracle: per-class divergence counts (capacity and
// aliasing effects are legal; semantic divergences and audit failures are
// bugs), recorded samples, and an Err() accessor that is non-nil exactly
// when a fatal divergence was found.
type DiffReport = oracle.Report

// DiffOptions tune a differential run (audit cadence, sample caps, step
// bound). The zero value is usable.
type DiffOptions = oracle.Options

// CheckDesign drives the design and an automatically-selected reference
// oracle in lockstep over the app's trace, comparing every prediction and
// deep-auditing internal invariants periodically. The report is returned
// even when divergences were found; inspect report.Err() for fatality.
func CheckDesign(ctx context.Context, app App, design func() (TargetPredictor, error), totalInstrs uint64, opts DiffOptions) (*DiffReport, error) {
	tr, err := BuildTrace(app, totalInstrs)
	if err != nil {
		return nil, err
	}
	tp, err := design()
	if err != nil {
		return nil, err
	}
	return oracle.DiffDesign(ctx, tp, tr, opts)
}

// TraceSource is a replayable trace provider: the in-memory Trace, a
// file-backed .pdtz mapping, or anything else producing identical reader
// streams on every Open. Real ingested traces (ChampSim, perf/LBR) satisfy
// it via package internal/trace/ingest.
type TraceSource = trace.Source

// DiffDesignNames lists the design roster the differential oracle covers,
// in registry order.
func DiffDesignNames() []string {
	ds := experiments.DiffDesigns()
	names := make([]string, len(ds))
	for i, d := range ds {
		names[i] = d.Name
	}
	return names
}

// CheckDesignOnTrace runs one diff-roster design (by registry name) and its
// reference oracle in lockstep over an arbitrary trace source — typically a
// real ingested trace rather than a synthetic app. The report is returned
// even when divergences were found; inspect report.Err() for fatality.
func CheckDesignOnTrace(ctx context.Context, name string, src TraceSource, opts DiffOptions) (*DiffReport, error) {
	for _, d := range experiments.DiffDesigns() {
		if d.Name != name {
			continue
		}
		tp, err := d.New()
		if err != nil {
			return nil, err
		}
		return oracle.DiffDesign(ctx, tp, src, opts)
	}
	return nil, fmt.Errorf("pdedesim: no diff design named %q (see DiffDesignNames)", name)
}

// --- Experiments ----------------------------------------------------------

// Experiments lists every table/figure reproduction in paper order.
func Experiments() []Experiment { return experiments.All() }

// ExtensionExperiments lists the design-choice ablations that go beyond the
// paper (replacement policy, table sizing, NT-register depth, wrong-path
// pollution).
func ExtensionExperiments() []Experiment { return experiments.ExtExperiments() }

// RunExperiment executes one experiment by id ("fig10", "table2", ...),
// writing its report to w. Zero-valued options run the full 102-app suite.
func RunExperiment(id string, opts SuiteOptions, w io.Writer) error {
	return RunExperimentContext(context.Background(), id, opts, w)
}

// RunExperimentContext is RunExperiment with cancellation and failure
// aggregation: ctx cancels the suite mid-run (completed apps still land in
// the checkpoint, if one is configured), and with opts.KeepGoing the
// report is written from the apps that succeeded while the joined per-app
// failures come back as the returned error — callers get both the partial
// report and a non-nil signal for their exit code.
func RunExperimentContext(ctx context.Context, id string, opts SuiteOptions, w io.Writer) error {
	e, ok := experiments.ByID(id)
	if !ok {
		return fmt.Errorf("pdedesim: unknown experiment %q", id)
	}
	r := experiments.NewRunner(opts).WithContext(ctx)
	fmt.Fprintf(w, "== %s\n   paper: %s\n\n", e.Title, e.Paper)
	if err := e.Run(r, w); err != nil {
		return err
	}
	return r.Err()
}

// QuickSuite returns reduced options for fast exploratory runs.
func QuickSuite() SuiteOptions { return experiments.QuickOptions() }

// DumpSuiteJSON runs the Figure 10 design set (baseline + the three PDede
// variants) over the application suite and writes per-(app, design) JSON
// records to path — the machine-readable artifact for external plotting.
func DumpSuiteJSON(opts SuiteOptions, path string) error {
	return DumpSuiteJSONContext(context.Background(), opts, path)
}

// DumpSuiteJSONContext is DumpSuiteJSON with cancellation. With
// opts.KeepGoing the dump covers the apps that succeeded and the joined
// per-app failures are returned after the file is written.
func DumpSuiteJSONContext(ctx context.Context, opts SuiteOptions, path string) error {
	r := experiments.NewRunner(opts)
	suite, err := r.RunContext(ctx, experiments.StandardDesigns())
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := suite.WriteJSON(&buf); err != nil {
		return err
	}
	if err := atomicio.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	return suite.Err()
}

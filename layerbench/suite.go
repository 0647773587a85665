package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/workload"
)

// setupSuite builds the traces of sz.suiteApps catalog apps, sampled
// evenly as the runner samples them.
func setupSuite(r *run) (*inputs, setupTimes, error) {
	t0 := time.Now()
	apps := experiments.NewRunner(experiments.Options{Apps: r.sz.suiteApps}).SuiteApps()
	in := &inputs{warmup: r.sz.suiteWarmup, designs: benchDesigns()}
	for i, app := range apps {
		s, err := buildRecords(seeded(app, r.seed, i), r.sz.suiteRecords)
		if err != nil {
			return nil, setupTimes{}, err
		}
		in.streams = append(in.streams, s)
	}
	el := time.Since(t0)
	return in, setupTimes{total: el, build: el}, nil
}

// suiteOptions runs the runner over streams, which are handed in through
// BuildTrace as prebuilt traces; wrap, when non-nil, wraps each one.
func suiteOptions(streams []stream, warmup uint64, workers int, wrap func(trace.Source) trace.Source) experiments.Options {
	byName := map[string]*stream{}
	var catalog []workload.Config
	var total uint64
	for i := range streams {
		s := &streams[i]
		byName[s.app.Name] = s
		catalog = append(catalog, s.app)
		total = max(total, s.instrs)
	}
	return experiments.Options{
		Catalog:      catalog,
		TotalInstrs:  total,
		WarmupInstrs: warmup,
		Workers:      workers,
		BuildTrace: func(cfg workload.Config, _ uint64) (trace.Source, error) {
			s, ok := byName[cfg.Name]
			if !ok {
				return nil, fmt.Errorf("no prebuilt trace for %s", cfg.Name)
			}
			var src trace.Source = s.memory()
			if wrap != nil {
				src = wrap(src)
			}
			return src, nil
		},
	}
}

// runSuite runs the suite once and checks every cell and, against ref
// when it is set, the export digest. It returns the wall time and the
// digest.
func runSuite(r *run, opts experiments.Options, designs []experiments.Design, ref string) (time.Duration, *experiments.Suite, string) {
	t0 := time.Now()
	suite, err := experiments.NewRunner(opts).Run(designs)
	el := time.Since(t0)
	if err != nil {
		r.check(false, "suite: %v", err)
		return el, nil, ""
	}
	for _, a := range suite.Apps {
		for _, d := range designs {
			r.check(a.Result(d.Name) != nil, "suite cell %s/%s: %v", a.App.Name, d.Name, a.Err)
		}
	}
	dg, err := exportDigest(suite)
	if err != nil {
		r.check(false, "suite export: %v", err)
		return el, suite, ""
	}
	if ref != "" {
		r.checkDigest("suite export", ref, dg)
	}
	return el, suite, dg
}

// measureSuite runs the whole ablation suite through the runner, over and
// over, for the run's duration.
func measureSuite(r *run, in *inputs) error {
	opts := suiteOptions(in.streams, in.warmup, r.sz.suiteWorkers, nil)
	var walls []time.Duration
	var ref string
	var last *experiments.Suite
	heap := 0.0
	var recs int
	var instrs uint64
	for _, s := range in.streams {
		recs += len(s.recs)
		instrs += s.instrs
	}
	recs *= len(in.designs)
	instrs *= uint64(len(in.designs))
	deadline := time.Now().Add(r.seconds)
	for reps := 0; reps == 0 || time.Now().Before(deadline); reps++ {
		el, suite, dg := runSuite(r, opts, in.designs, ref)
		if suite == nil {
			continue
		}
		if ref == "" {
			ref = dg
		}
		heap = max(heap, liveHeapMB())
		runtime.KeepAlive(suite)
		last = suite
		walls = append(walls, el)
	}
	if last == nil {
		return fmt.Errorf("suite: no run completed")
	}
	checkColdCell(r, in, last)

	ns, err := fastDecileNS(float64(recs), walls)
	if err != nil {
		return err
	}
	r.set("sim_ns_per_rec", ns)
	r.set("latency_ms", 1e3*must(median(seconds(walls))))
	r.set("heap_mb", heap)
	r.logf("suite: %d apps x %d designs, %d records each (warmup %d instructions), %d workers",
		len(in.streams), len(in.designs), r.sz.suiteRecords, in.warmup, opts.Workers)
	reportRates(r, "suite run", recs, instrs, walls)
	return nil
}

// checkColdCell re-runs one cell of the suite, picked by the seed, with
// warm-state sharing off and checks that it matches the shared-warmup
// result.
func checkColdCell(r *run, in *inputs, suite *experiments.Suite) {
	a := int(r.seed % uint64(len(in.streams)))
	d := in.designs[int(r.seed%uint64(len(in.designs)))]
	opts := suiteOptions(in.streams[a:a+1], in.warmup, 1, nil)
	opts.ColdStart = true
	cold, err := experiments.NewRunner(opts).Run([]experiments.Design{d})
	if err != nil {
		r.check(false, "cold cell: %v", err)
		return
	}
	got := cold.Apps[0].Result(d.Name)
	want := suite.Apps[a].Result(d.Name)
	if got == nil || want == nil {
		r.check(false, "cold cell %s/%s missing", in.streams[a].app.Name, d.Name)
		return
	}
	r.checkDigest("cold cell "+cellKey(in.streams[a].app.Name, d.Name), serve.ResultDigest(want), serve.ResultDigest(got))
}

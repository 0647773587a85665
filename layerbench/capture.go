package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/workload"
)

// setupCapture synthesizes app's trace and writes it as a .pdtz capture,
// the form a real capture arrives in.
func setupCapture(appName string) func(*run) (*inputs, setupTimes, error) {
	return func(r *run) (*inputs, setupTimes, error) {
		var t setupTimes
		app, ok := workload.CatalogByName(appName)
		if !ok {
			return nil, t, fmt.Errorf("no catalog app %q", appName)
		}
		t0 := time.Now()
		s, err := buildRecords(seeded(app, r.seed, 0), r.sz.captureRecords)
		if err != nil {
			return nil, t, err
		}
		t1 := time.Now()
		path, err := writePdtz(r.dir, &s)
		if err != nil {
			return nil, t, err
		}
		t2 := time.Now()
		z, err := trace.OpenPdtz(path)
		if err != nil {
			return nil, t, err
		}
		if z.Records() != uint64(len(s.recs)) {
			return nil, t, fmt.Errorf("%s holds %d records, wrote %d", path, z.Records(), len(s.recs))
		}
		if err := z.Close(); err != nil {
			return nil, t, err
		}
		t = setupTimes{total: time.Since(t0), build: t1.Sub(t0), write: t2.Sub(t1)}
		return &inputs{
			streams: []stream{s},
			warmup:  r.sz.captureWarmup,
			designs: designsByName(coreDesigns),
			pdtz:    []string{path},
		}, t, nil
	}
}

// capturePass is the path a real capture takes: map the .pdtz file and
// replay it through core.RunContext. Only the open and the replay are
// timed; the caller builds cfg, and its BTB, before.
func capturePass(cfg core.Config, path string) (time.Duration, *core.Result, error) {
	t0 := time.Now()
	z, err := trace.OpenPdtz(path)
	if err != nil {
		return 0, nil, err
	}
	res, err := core.RunContext(context.Background(), cfg, z)
	cerr := z.Close()
	el := time.Since(t0)
	if err == nil {
		err = cerr
	}
	return el, res, err
}

// measureCapture replays the capture under each design in turn, b,p,b,p,
// for the run's duration. Short interleaved passes spread the host's slow
// phases evenly over both designs.
func measureCapture(r *run, in *inputs) error {
	s := &in.streams[0]
	ref, err := referenceDigests(in, in.designs)
	if err != nil {
		return err
	}
	nrec := len(s.recs)
	r.logf("capture %s: %d records, %d instructions, warmup %d", s.app.Name, nrec, s.instrs, in.warmup)
	// The benchmark's own copy of the records is not part of the path.
	s.recs = nil

	perDesign := map[string][]time.Duration{}
	var pairs []time.Duration
	heap := 0.0
	deadline := time.Now().Add(r.seconds)
	for len(pairs) == 0 || time.Now().Before(deadline) {
		var pair time.Duration
		for _, d := range in.designs {
			cfg, err := coreConfig(d, s.app, in.warmup)
			if err != nil {
				return err
			}
			el, res, err := capturePass(cfg, in.pdtz[0])
			if err != nil {
				r.check(false, "%s: %v", d.Name, err)
				continue
			}
			r.checkDigest(cellKey(s.app.Name, d.Name), ref[cellKey(s.app.Name, d.Name)], serve.ResultDigest(res))
			heap = max(heap, liveHeapMB())
			runtime.KeepAlive(cfg.BTB)
			perDesign[d.Name] = append(perDesign[d.Name], el)
			pair += el
		}
		pairs = append(pairs, pair)
	}

	ns, err := fastDecileNS(float64(len(in.designs)*nrec), pairs)
	if err != nil {
		return err
	}
	r.set("sim_ns_per_rec", ns)
	r.set("latency_ms", 1e3*must(median(seconds(pairs))))
	r.set("heap_mb", heap)

	for _, d := range in.designs {
		reportRates(r, d.Name, nrec, s.instrs, perDesign[d.Name])
	}
	reportRates(r, "both designs", len(in.designs)*nrec, uint64(len(in.designs))*s.instrs, pairs)
	return nil
}

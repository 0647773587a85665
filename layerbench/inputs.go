package main

import (
	"bufio"
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/workload"
)

// stream is one application's or tenant's generated record stream.
type stream struct {
	app    workload.Config
	recs   []isa.Branch
	instrs uint64
}

func (s *stream) memory() *trace.Memory {
	return &trace.Memory{TraceName: s.app.Name, Records: s.recs}
}

// inputs are what a workload's set-up produced: the record streams, the
// warmup every simulation of them uses, the workload's own design set,
// and, once written, one .pdtz capture file per stream.
type inputs struct {
	streams []stream
	warmup  uint64
	designs []experiments.Design
	pdtz    []string
}

// setupTimes splits one set-up into trace synthesis and .pdtz writing;
// total also covers whatever else the workload starts.
type setupTimes struct {
	total, build, write time.Duration
}

// seeded mixes the benchmark seed into an app's own seed, so a seed picks
// different programs and executions while the simulator sees only the
// generated records.
func seeded(app workload.Config, seed uint64, i int) workload.Config {
	app.Seed ^= rng.New(seed).Fork(uint64(i)).Uint64()
	return app
}

// buildRecords synthesizes app's program and executes it for exactly n
// records. Fixing the record count, not the instruction count, keeps the
// simulator's work the same for every seed: a seed changes the program and
// with it the instructions per record, while host time per record barely
// moves.
func buildRecords(app workload.Config, n int) (stream, error) {
	instrs := uint64(n) * uint64(max(app.BlockLenMean, 1))
	for {
		_, tr, err := workload.Build(app, instrs)
		if err != nil {
			return stream{}, err
		}
		if len(tr.Records) >= n {
			s := stream{app: app, recs: tr.Records[:n]}
			for _, b := range s.recs {
				s.instrs += uint64(b.BlockLen)
			}
			return s, nil
		}
		instrs *= 2
	}
}

// writePdtz stores s in dir as a .pdtz capture and returns its path.
func writePdtz(dir string, s *stream) (string, error) {
	path := filepath.Join(dir, s.app.Name+".pdtz")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	if err := trace.WritePdtz(w, s.app.Name, s.memory().Open()); err != nil {
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	return path, f.Close()
}

// coreConfig is the core configuration every simulation of app under d
// uses, with a freshly built BTB.
func coreConfig(d experiments.Design, app workload.Config, warmup uint64) (core.Config, error) {
	tp, err := d.New()
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.Config{Params: core.Icelake(), BackendCPI: app.BackendCPI, BTB: tp, WarmupInstrs: warmup}
	if d.Mod != nil {
		d.Mod(&cfg)
	}
	return cfg, nil
}

// referenceDigests simulates every stream under every design from memory,
// untimed: the results the measured paths must reproduce bit for bit.
func referenceDigests(in *inputs, designs []experiments.Design) (map[string]string, error) {
	ref := map[string]string{}
	for i := range in.streams {
		s := &in.streams[i]
		for _, d := range designs {
			cfg, err := coreConfig(d, s.app, in.warmup)
			if err != nil {
				return nil, err
			}
			res, err := core.RunContext(context.Background(), cfg, s.memory())
			if err != nil {
				return nil, fmt.Errorf("reference %s/%s: %w", s.app.Name, d.Name, err)
			}
			ref[cellKey(s.app.Name, d.Name)] = serve.ResultDigest(res)
		}
	}
	return ref, nil
}

func cellKey(app, design string) string { return app + "/" + design }

// exportDigest fingerprints a suite's whole export.
func exportDigest(s *experiments.Suite) (string, error) {
	h := fnv.New64a()
	if err := s.WriteJSON(h); err != nil {
		return "", err
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// repeatSetup runs set-up sz.setupReps times, keeps the last inputs, and
// records the medians of its parts.
func repeatSetup(r *run, setup func(*run) (*inputs, setupTimes, error)) (*inputs, error) {
	var in *inputs
	var total, build, write []float64
	for i := 0; i < max(r.sz.setupReps, 1); i++ {
		var t setupTimes
		var err error
		if in, t, err = setup(r); err != nil {
			return nil, err
		}
		total = append(total, t.total.Seconds())
		build = append(build, t.build.Seconds())
		write = append(write, t.write.Seconds())
	}
	r.set("setup_s", must(median(total)))
	r.set("workload.build_s", must(median(build)))
	if len(in.pdtz) > 0 {
		r.set("workload.pdtz_write_s", must(median(write)))
	}
	r.logf("setup: %s s (build %s s)", summarize(total), summarize(build))
	return in, nil
}

// must unwraps a statistic over samples the caller knows are non-empty.
func must(v float64, err error) float64 {
	if err != nil {
		panic(err)
	}
	return v
}

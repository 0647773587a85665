// Command pdede-experiments reproduces the paper's tables and figures.
//
// Usage:
//
//	pdede-experiments -list                  # show all experiment ids
//	pdede-experiments -run fig10             # one experiment, full suite
//	pdede-experiments -run all -apps 16      # everything on a sampled suite
//	pdede-experiments -run fig12b -o out.txt
//
// Resilience (long sweeps):
//
//	pdede-experiments -run fig10 -keep-going -timeout 5m -checkpoint fig10.ckpt
//
// Sweeps run on a worker pool: -workers (default: the CPU count) bounds
// concurrent trace builds, shared frontend passes and (app, design)
// simulation cells. Results are bit-identical for every worker count, and
// the per-app frontend (caches, direction predictor, RAS) is simulated
// once and replayed by every compatible design (disable with -cold-start
// to cross-check).
//
// -keep-going records per-app failures (reported on stderr) instead of
// aborting the sweep; -timeout bounds each app's wall clock; -checkpoint
// persists completed (app, design) results after every app so an
// interrupted or partially-failed run resumes where it left off.
// SIGINT/SIGTERM cancel the run context: in-flight apps stop at the next
// loop check and everything already completed is in the checkpoint.
// Failures exit non-zero even when the report was written. -o writes its
// file only when every experiment succeeded, or with -keep-going; a failed
// run leaves an existing report untouched.
//
// -cpuprofile and -memprofile write runtime/pprof profiles of the whole
// run for `go tool pprof`.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	pdedesim "repro"
	"repro/internal/atomicio"
	"repro/internal/profile"
)

func main() {
	// All the work happens in run so its deferred cleanups (signal stop,
	// profile flush) execute before the process exits;
	// os.Exit here would otherwise skip them.
	os.Exit(run(os.Args[1:]))
}

func run(args []string) (code int) {
	fs := flag.NewFlagSet("pdede-experiments", flag.ContinueOnError)
	var (
		runSpec = fs.String("run", "", "experiment id, comma-separated list, or 'all'")
		list    = fs.Bool("list", false, "list experiments and exit")
		apps    = fs.Int("apps", 0, "number of applications (0 = all 102)")
		instrs  = fs.Uint64("instrs", 3_500_000, "instructions per app")
		warmup  = fs.Uint64("warmup", 1_500_000, "warmup instructions")
		out     = fs.String("o", "", "also write the report to this file")
		dump    = fs.String("dump-suite", "", "run the Figure 10 designs over the suite and write per-app JSON records to this file")
		ckpt    = fs.String("checkpoint", "", "persist completed (app, design) results to this file and resume from it")
		timeout = fs.Duration("timeout", 0, "per-app wall-clock budget across designs (0 = none)")
		keep    = fs.Bool("keep-going", false, "record per-app failures and keep sweeping instead of aborting on the first")
		check   = fs.Bool("selfcheck", false, "deep-audit every design's internal invariants every few thousand records (slower; fails on the first violation)")
		workers = fs.Int("workers", runtime.NumCPU(), "worker pool size for trace builds, shared frontend passes and (app, design) simulation cells; results are bit-identical for every value")
		cold    = fs.Bool("cold-start", false, "disable the shared per-app frontend pass; every cell simulates its whole trace from cold (slower, bit-identical)")
		verbose = fs.Bool("v", false, "log per-app progress to stderr")

		diffCheck = fs.Bool("check", false, "run the differential oracle over an ingested trace (-trace) for every diff-roster design")
		traceIn   = fs.String("trace", "", "trace file for -check (pdt, pdtz, champsim, perf; optionally .gz)")
		traceFrom = fs.String("from", "auto", "trace container format for -trace: auto, pdt, pdtz, champsim, perf")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile at the end of the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// Resolve every id before anything runs, so a typo fails at once
	// instead of after a full sweep.
	ids, err := experimentIDs(*runSpec)
	if err != nil {
		return fail(err)
	}

	stopProfiles, err := profile.Start(*cpuProf, *memProf)
	if err != nil {
		return fail(err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			code = fail(err)
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := pdedesim.SuiteOptions{
		Apps:         *apps,
		TotalInstrs:  *instrs,
		WarmupInstrs: *warmup,
		Workers:      *workers,
		ColdStart:    *cold,

		AppTimeout:     *timeout,
		KeepGoing:      *keep,
		CheckpointPath: *ckpt,
	}
	if *check {
		opts.SelfCheckEvery = 4096
	}
	if *verbose || *keep || *ckpt != "" {
		opts.Log = os.Stderr
	}

	if *diffCheck {
		return runTraceCheck(ctx, *traceIn, *traceFrom)
	}

	if *dump != "" {
		if err := pdedesim.DumpSuiteJSONContext(ctx, opts, *dump); err != nil {
			if interrupted(ctx) {
				err = fmt.Errorf("interrupted (completed apps are in the checkpoint): %w", err)
			}
			return fail(err)
		}
		fmt.Println("wrote", *dump)
		return 0
	}

	if *list || len(ids) == 0 {
		fmt.Println("paper artifacts:")
		for _, e := range pdedesim.Experiments() {
			fmt.Printf("  %-12s %s\n", e.ID, e.Title)
		}
		fmt.Println("extensions:")
		for _, e := range pdedesim.ExtensionExperiments() {
			fmt.Printf("  %-12s %s\n", e.ID, e.Title)
		}
		if len(ids) == 0 {
			fmt.Println("\nrun with: pdede-experiments -run <id>|all|ext")
		}
		return 0
	}

	// -o tees the report into memory as stdout streams it. The file is
	// written once, atomically, after the sweep: an earlier complete
	// report is never replaced by a failed run's partial one.
	var w io.Writer = os.Stdout
	var report bytes.Buffer
	if *out != "" {
		w = io.MultiWriter(os.Stdout, &report)
	}

	exit := 0
	for _, id := range ids {
		start := time.Now()
		err := pdedesim.RunExperimentContext(ctx, id, opts, w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pdede-experiments: %s: %v\n", id, err)
			exit = 1
			if interrupted(ctx) {
				fmt.Fprintln(os.Stderr, "pdede-experiments: interrupted; completed apps are in the checkpoint")
				break
			}
			if !*keep {
				break
			}
			continue // -keep-going: partial report written, sweep on
		}
		fmt.Fprintf(w, "\n[%s finished in %.1fs]\n\n", id, time.Since(start).Seconds())
	}
	switch {
	case *out == "":
	case exit == 0 || *keep:
		if err := atomicio.WriteFile(*out, report.Bytes(), 0o644); err != nil {
			exit = fail(err)
		}
	default:
		fmt.Fprintf(os.Stderr, "pdede-experiments: %s left unchanged: the run failed (-keep-going writes a partial report)\n", *out)
	}
	return exit
}

// experimentIDs resolves -run's value ("all", "ext" or a comma-separated
// list) to experiment ids, rejecting any id that names no experiment. An
// empty spec resolves to no ids.
func experimentIDs(spec string) ([]string, error) {
	var ids []string
	switch spec {
	case "":
	case "all":
		for _, e := range pdedesim.Experiments() {
			ids = append(ids, e.ID)
		}
	case "ext":
		for _, e := range pdedesim.ExtensionExperiments() {
			ids = append(ids, e.ID)
		}
	default:
		known := map[string]bool{}
		for _, e := range append(pdedesim.Experiments(), pdedesim.ExtensionExperiments()...) {
			known[e.ID] = true
		}
		for _, id := range strings.Split(spec, ",") {
			id = strings.TrimSpace(id)
			if !known[id] {
				return nil, fmt.Errorf("unknown experiment %q (see -list)", id)
			}
			ids = append(ids, id)
		}
	}
	return ids, nil
}

// interrupted reports whether the signal context ended the run.
func interrupted(ctx context.Context) bool { return ctx.Err() != nil }

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "pdede-experiments:", err)
	return 1
}

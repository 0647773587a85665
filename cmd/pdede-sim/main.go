// Command pdede-sim runs one application through one or more BTB designs
// and prints IPC/MPKI metrics.
//
// Usage:
//
//	pdede-sim -app Server-oltp-primary -designs baseline,pdede-me
//	pdede-sim -list                      # list catalog applications
//	pdede-sim -app Browser-imaging -designs all -instrs 5000000
//	pdede-sim -app Server-oltp-primary -cpuprofile cpu.pprof  # go tool pprof cpu.pprof
//
// Designs: baseline, baseline-8k, dedup, pdede, pdede-mt, pdede-me,
// shotgun, twolevel, perfect, all.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	pdedesim "repro"
	"repro/internal/profile"
)

func main() {
	// All the work happens in run so its deferred cleanups (signal stop,
	// profile flush) execute before the process exits.
	os.Exit(run())
}

func run() (code int) {
	var (
		appName = flag.String("app", "Server-oltp-primary", "catalog application name")
		appFile = flag.String("app-file", "", "JSON application config (overrides -app)")
		designs = flag.String("designs", "baseline,pdede,pdede-mt,pdede-me", "comma-separated designs (or 'all')")
		instrs  = flag.Uint64("instrs", 3_500_000, "trace length in instructions")
		warmup  = flag.Uint64("warmup", 1_500_000, "warmup instructions (unmeasured)")
		list    = flag.Bool("list", false, "list catalog applications and exit")
		perfDir = flag.Bool("perfect-direction", false, "use a perfect direction predictor (§5.5)")
		check   = flag.Bool("check", false, "differential-check each design against its reference oracle instead of simulating")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf = flag.String("memprofile", "", "write a heap profile at the end of the run to this file")
	)
	flag.Parse()

	stopProfiles, err := profile.Start(*cpuProf, *memProf)
	if err != nil {
		return fail(err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			code = fail(err)
		}
	}()

	// SIGINT/SIGTERM cancel the simulation context; the run loop notices
	// within a few thousand records and the command exits non-zero.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *list {
		apps := pdedesim.Catalog()
		sort.Slice(apps, func(i, j int) bool { return apps[i].Name < apps[j].Name })
		for _, a := range apps {
			fmt.Printf("%-36s %-8s %6d static branches\n", a.Name, a.Category, a.StaticBranches)
		}
		return 0
	}

	var app pdedesim.App
	if *appFile != "" {
		app, err = pdedesim.LoadApp(*appFile)
	} else {
		app, err = pdedesim.AppByName(*appName)
	}
	if err != nil {
		return fail(err)
	}
	opts := pdedesim.DefaultSimOptions()
	opts.TotalInstrs = *instrs
	opts.WarmupInstrs = *warmup
	opts.PerfectDirection = *perfDir

	available := map[string]func() (pdedesim.TargetPredictor, error){
		"baseline":    pdedesim.Baseline(4096),
		"baseline-8k": pdedesim.Baseline(8192),
		"dedup":       pdedesim.DedupOnly(),
		"pdede":       pdedesim.PDedeDefault(),
		"pdede-mt":    pdedesim.PDedeMultiTarget(),
		"pdede-me":    pdedesim.PDedeMultiEntry(),
		"shotgun":     pdedesim.ShotgunBTB(),
		"twolevel":    pdedesim.TwoLevel(256, pdedesim.PDedeMultiEntry()),
		"perfect":     pdedesim.PerfectBTB(),
	}
	order := []string{"baseline", "baseline-8k", "dedup", "pdede", "pdede-mt", "pdede-me", "shotgun", "twolevel", "perfect"}

	var picked []string
	if *designs == "all" {
		picked = order
	} else {
		for _, d := range strings.Split(*designs, ",") {
			d = strings.TrimSpace(d)
			if _, ok := available[d]; !ok {
				return fail(fmt.Errorf("unknown design %q (have: %s)", d, strings.Join(order, ", ")))
			}
			picked = append(picked, d)
		}
	}

	if *check {
		return runCheck(ctx, app, available, picked, *instrs)
	}

	fmt.Printf("app %s (%s, %d static branches), %d instrs (%d warmup)\n\n",
		app.Name, app.Category, app.StaticBranches, *instrs, *warmup)
	tr, err := pdedesim.BuildTrace(app, opts.TotalInstrs)
	if err != nil {
		return fail(err)
	}

	var base *pdedesim.Result
	fmt.Printf("%-12s %8s %10s %10s %10s %11s %9s\n",
		"design", "IPC", "BTB-MPKI", "dir-MPKI", "fe-stall%", "btb-stall%", "vs-first")
	for _, name := range picked {
		res, err := pdedesim.SimulateTraceContext(ctx, app, tr, available[name], opts)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				return fail(errors.New("interrupted"))
			}
			return fail(fmt.Errorf("%s: %w", name, err))
		}
		vs := "-"
		if base == nil {
			base = res
		} else {
			vs = fmt.Sprintf("%+.1f%%", 100*res.Speedup(base))
		}
		fmt.Printf("%-12s %8.3f %10.3f %10.3f %9.1f%% %10.1f%% %9s\n",
			name, res.IPC(), res.BTBMPKI(), res.DirMPKI(),
			100*res.FrontendStallFrac(), 100*res.BTBResteerShareOfStalls(), vs)
	}
	return 0
}

// runCheck drives each picked design and its matching unbounded oracle in
// lockstep over the app's trace, printing the divergence breakdown. Legal
// divergences (capacity, aliasing, hysteresis) are informational; a semantic
// divergence or an audit failure exits non-zero.
func runCheck(ctx context.Context, app pdedesim.App, available map[string]func() (pdedesim.TargetPredictor, error), picked []string, instrs uint64) int {
	fmt.Printf("differential check: app %s, %d instrs\n\n", app.Name, instrs)
	failed := false
	for _, name := range picked {
		rep, err := pdedesim.CheckDesign(ctx, app, available[name], instrs, pdedesim.DiffOptions{})
		if err != nil {
			if errors.Is(err, context.Canceled) {
				return fail(errors.New("interrupted"))
			}
			return fail(fmt.Errorf("%s: %w", name, err))
		}
		fmt.Printf("%-12s %s\n", name, rep.Summary())
		if err := rep.Err(); err != nil {
			failed = true
			fmt.Fprintf(os.Stderr, "pdede-sim: %v\n", err)
		}
	}
	if failed {
		return 1
	}
	fmt.Println("\nall designs clean: every divergence classified as a legal capacity/aliasing effect")
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "pdede-sim:", err)
	return 1
}

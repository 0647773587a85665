package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// workloadDef is one workload: a set-up that builds its inputs from the
// seed, and the end-to-end measurement of its path.
type workloadDef struct {
	name, why string
	setup     func(*run) (*inputs, setupTimes, error)
	measure   func(*run, *inputs) error
}

// workloads are the benchmark's workloads, in the order -workload all
// runs them. doc.go says why each is there.
var workloads = []workloadDef{
	{"capture-oltp", "OLTP capture via .pdtz: BTB working set far exceeds both designs, so Update/allocation and PDede's Page/Region-BTB traffic dominate the BTB layer",
		setupCapture("Server-oltp-primary"), measureCapture},
	{"capture-jsa", "JS-analyzer capture via .pdtz: hot set fits PDede, so the BTB layer is mostly Lookup hits; an allocation-path change should move oltp and not this",
		setupCapture("Browser-js-static-analyzer"), measureCapture},
	{"suite-ablation", "4 apps x 7 designs through the suite runner: pool, shared warm pass, per-design clones and the designs the captures skip; no trace decode",
		setupSuite, measureSuite},
	{"serve-stream", "64 tenants stream 256-record batches to pdede-serve over HTTP: codec, queueing and acks dominate, so serve changes show here only",
		setupServe, measureServe},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// realMain runs the command and returns its exit code: 0 after printing a
// result, 1 when -agree finds sets that disagree, 2 on any error.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("layerbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name       = fs.String("workload", "", "workload to run, or all")
		seed       = fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
		secs       = fs.Float64("seconds", 25, "how long the measurement runs")
		traced     = fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
		spans      = fs.String("spans", "", "write the traced run's spans to this file as Chrome trace-event JSON (with all, one file per workload)")
		out        = fs.String("o", "", "append each result, with its workload and seed, to this JSON-lines file")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile at the end of the run to this file")
		agree      = fs.Bool("agree", false, "compare two result files written by -o, given as arguments")
		bench      = fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds -agree applies")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *agree {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "layerbench: -agree takes two result files")
			return 2
		}
		ok, err := agreeFiles(stdout, *bench, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "layerbench:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || *traced < 0 || *traced > 1 || *secs <= 0 {
		fmt.Fprintln(stderr, "layerbench: usage: -workload <name>|all -seed N -seconds S -trace 0|1")
		return 2
	}
	defs := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "layerbench: unknown workload %q\n", *name)
			return 2
		}
		defs = []workloadDef{w}
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "layerbench:", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "layerbench:", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}

	opt := options{seed: *seed, seconds: time.Duration(*secs * float64(time.Second)), traced: *traced == 1, spans: *spans, sz: fullSizes}
	all := &result{Correct: true, Metrics: map[string]metricValue{}}
	var last *result
	for _, w := range defs {
		if *spans != "" && len(defs) > 1 {
			opt.spans = strings.TrimSuffix(*spans, ".json") + "-" + w.name + ".json"
		}
		res, err := runWorkload(w, opt, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "layerbench: %s: %v\n", w.name, err)
			return 2
		}
		if *out != "" {
			if err := appendResult(*out, record{Workload: w.name, Seed: *seed, Trace: *traced, Result: res}); err != nil {
				fmt.Fprintln(stderr, "layerbench:", err)
				return 2
			}
		}
		last = res
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for m, v := range res.Metrics {
			all.Metrics[w.name+"/"+m] = v
		}
		if len(defs) > 1 {
			fmt.Fprintln(stdout, res.json())
		}
	}
	if *memprofile != "" {
		if err := writeHeapProfile(*memprofile); err != nil {
			fmt.Fprintln(stderr, "layerbench:", err)
			return 2
		}
	}
	if len(defs) > 1 {
		last = all
	}
	fmt.Fprintln(stdout, last.json())
	return 0
}

// options are one invocation's settings.
type options struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	spans   string
	sz      sizes
	// digestHook is passed to run.digestHook.
	digestHook func(string) string
}

// runWorkload sets w up and measures it, end to end or traced, and prints
// its report.
func runWorkload(w workloadDef, opt options, stdout io.Writer) (*result, error) {
	dir, err := os.MkdirTemp("", "layerbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := newRun(opt.seed, opt.seconds, dir, opt.sz, stdout)
	r.digestHook = opt.digestHook
	want := endToEnd
	if opt.traced {
		r.tr = &tracer{}
		want = perLayer()
	}
	r.logf("== %s (seed %d, %v, traced %v)", w.name, opt.seed, opt.seconds, opt.traced)
	in, err := repeatSetup(r, w.setup)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	if opt.traced {
		err = tracedRun(r, in)
	} else {
		err = w.measure(r, in)
	}
	if err != nil {
		return nil, err
	}
	for _, f := range r.failures {
		r.logf("FAILED: %s", f)
	}
	res, err := r.result(want)
	if err != nil {
		return nil, err
	}
	printTable(stdout, res)
	if opt.traced && opt.spans != "" {
		if err := r.tr.write(opt.spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// record is one line of a -o results file.
type record struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Trace    int     `json:"trace"`
	Result   *result `json:"result"`
}

func appendResult(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		return fmt.Errorf("appending to %s: %w", path, err)
	}
	return f.Close()
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

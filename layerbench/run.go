package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"
)

// sizes fixes how much work each workload does. The benchmark runs
// fullSizes; tests shrink them so every path runs in well under a second.
type sizes struct {
	// setupReps is how many times set-up runs; setup_s is their median.
	setupReps int
	// Capture workloads: trace records, and warmup instructions per pass.
	captureRecords int
	captureWarmup  uint64
	// Suite workload: catalog apps, records per app, warmup instructions,
	// and runner workers.
	suiteApps, suiteRecords int
	suiteWarmup             uint64
	suiteWorkers            int
	// Serve workload: tenants, batch size, distinct batches per tenant
	// (a tenant sending more replays its trace from the start as new
	// batches), connections, the open-loop rates, and the batches of one
	// closed-loop burst.
	tenants, batchRecords, tenantBatches, conns int
	rates                                       []float64
	closedBatches                               int
	// tracedRate is the open-loop rate of the traced run's serve path.
	tracedRate float64
}

var fullSizes = sizes{
	setupReps:      7,
	captureRecords: 1_750_000, captureWarmup: 2_000_000,
	suiteApps: 4, suiteRecords: 800_000, suiteWarmup: 1_500_000, suiteWorkers: 2,
	tenants: 64, batchRecords: 256, tenantBatches: 64, conns: 2,
	rates: []float64{500, 1000}, closedBatches: 2500,
	tracedRate: 1000,
}

// run is one invocation of one workload: its settings, the checks it made
// and the metrics it measured.
type run struct {
	seed    uint64
	seconds time.Duration
	dir     string // scratch space for trace files, inside the checkout
	sz      sizes
	out     io.Writer // human-readable report
	tr      *tracer   // non-nil only in the traced run

	// digestHook, when non-nil, rewrites every observed result digest
	// before it is checked: a test seam for injecting mismatches.
	digestHook func(string) string

	attempted, failed int
	failures          []string
	metrics           map[string]float64
}

func newRun(seed uint64, seconds time.Duration, dir string, sz sizes, out io.Writer) *run {
	return &run{seed: seed, seconds: seconds, dir: dir, sz: sz, out: out, metrics: map[string]float64{}}
}

// check counts one attempted operation and whether it succeeded.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 10 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
}

// checkDigest compares an observed result digest with the reference.
func (r *run) checkDigest(what, want, got string) {
	if r.digestHook != nil {
		got = r.digestHook(got)
	}
	r.check(want == got, "%s: digest %s, want %s", what, got, want)
}

// set records a metric value.
func (r *run) set(name string, v float64) { r.metrics[name] = v }

// logf writes one line of the human-readable report.
func (r *run) logf(format string, args ...any) { fmt.Fprintf(r.out, format+"\n", args...) }

// liveHeapMB forces a collection and returns the live heap. Callers keep
// the state they want counted reachable across the call. The second
// collection empties what sync.Pool caches keep through the first.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// result is the benchmark's output object, printed as the last line of
// standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result assembles the output for the given metric list, refusing when a
// metric is missing or not a finite number.
func (r *run) result(want []metric) (*result, error) {
	res := &result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range want {
		v, ok := r.metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return res, nil
}

// printTable writes the metrics of res in name order.
func printTable(w io.Writer, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-44s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
}

func (res *result) json() string {
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // plain structs of finite floats always encode
	}
	return string(b)
}

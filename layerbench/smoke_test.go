package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"
)

// tinySizes runs every path of every workload in a fraction of a second.
// The traced serve phase still sends the 1000 batches a p99 needs.
var tinySizes = sizes{
	setupReps:      2,
	captureRecords: 60_000, captureWarmup: 100_000,
	suiteApps: 2, suiteRecords: 30_000, suiteWarmup: 50_000, suiteWorkers: 2,
	tenants: 4, batchRecords: 32, tenantBatches: 8, conns: 2,
	rates: []float64{2000}, closedBatches: 200,
	tracedRate: 8000,
}

func tinyOptions(traced bool) options {
	// The traced serve phase runs for a quarter of the run: 125 ms at
	// 8000 batches/s is the 1000 batches its p99 needs.
	seconds := 250 * time.Millisecond
	if traced {
		seconds = 500 * time.Millisecond
	}
	return options{seed: 7, seconds: seconds, traced: traced, sz: tinySizes}
}

func TestSmokeAllWorkloads(t *testing.T) {
	for _, traced := range []bool{false, true} {
		for _, w := range workloads {
			var out bytes.Buffer
			res, err := runWorkload(w, tinyOptions(traced), &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", w.name, traced, err, out.String())
			}
			want := endToEnd
			if traced {
				want = perLayer()
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s", w.name, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, m.Name, v, m.Unit)
				}
			}
			if traced && !strings.Contains(out.String(), "layer attribution") {
				t.Errorf("%s: traced run printed no attribution table", w.name)
			}
		}
	}
}

func TestInjectedDigestMismatchFails(t *testing.T) {
	w, _ := findWorkload("capture-jsa")
	opt := tinyOptions(false)
	opt.digestHook = func(d string) string { return d + "-corrupt" }
	res, err := runWorkload(w, opt, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || res.Failed != res.Attempted {
		t.Errorf("corrupted digests: correct=%v attempted=%d failed=%d; want every check failed",
			res.Correct, res.Attempted, res.Failed)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "capture-jsa", "-trace", "2"},
		{"-workload", "capture-jsa", "-seconds", "0"},
		{"-agree", "only-one.json"},
		{"-bogus"},
	} {
		if got := realMain(args, io.Discard, io.Discard); got != 2 {
			t.Errorf("%v: exit %d, want 2", args, got)
		}
	}
}

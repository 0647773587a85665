package main

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestBenchmarkFileMatchesRegistry keeps BENCHMARK.json, at the repository
// root, in step with the workloads and metrics this program reports.
func TestBenchmarkFileMatchesRegistry(t *testing.T) {
	b, err := loadBench("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not a valid benchmark name", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if strings.Join(b.Command, " ") != "bash layerbench/run.sh" || strings.Join(b.Paths, " ") != "layerbench" {
		t.Errorf("command %q, paths %q do not run this directory", b.Command, b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d registered", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		checkName(w.Name)
		if i < len(workloads) && (w.Name != workloads[i].name || w.Why != workloads[i].why) {
			t.Errorf("workload %d is %q (%q), registered %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	if len(b.EndToEnd) != len(endToEnd) || len(b.EndToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d registered (at most 16)", len(b.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range b.EndToEnd {
		checkName(m.Name)
		r := endToEnd[i]
		if m.Name != r.Name || m.Unit != r.Unit || m.Better != r.Better {
			t.Errorf("end-to-end %d is %+v, registered %+v", i, m, r)
		}
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: bad unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower" || m.Bound != maxBound) {
			t.Errorf("setup_s must be in s, lower is better, with the largest bound: %+v", m)
		}
	}

	layers := perLayer()
	if len(b.PerLayer) != len(layers) || len(b.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d registered (at most 128)", len(b.PerLayer), len(layers))
	}
	for i, m := range b.PerLayer {
		checkName(m.Name)
		r := layers[i]
		if m.Name != r.Name || m.Unit != r.Unit || m.Better != r.Better {
			t.Errorf("per-layer %d is %+v, registered %+v", i, m, r)
		}
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: bad unit %q", m.Name, m.Unit)
		}
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
}

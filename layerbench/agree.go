package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchFile is BENCHMARK.json.
type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBench(path string) (*benchFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var b benchFile
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// loadRecords reads a -o results file: one record per line.
func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Result == nil {
			return nil, fmt.Errorf("%s: record without a result", path)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// agreeFiles prints, for every workload and end-to-end metric, each set's
// median and quartiles and the spread (interquartile range over median),
// and reports whether every median of set b lies within the metric's
// bound of set a's, in either direction.
func agreeFiles(w io.Writer, benchPath, pathA, pathB string) (bool, error) {
	b, err := loadBench(benchPath)
	if err != nil {
		return false, err
	}
	setA, err := loadRecords(pathA)
	if err != nil {
		return false, err
	}
	setB, err := loadRecords(pathB)
	if err != nil {
		return false, err
	}
	values := func(set []record, wl, metric string) []float64 {
		var out []float64
		for _, rec := range set {
			if v, ok := rec.Result.Metrics[metric]; ok && rec.Workload == wl && rec.Trace == 0 {
				out = append(out, v.Value)
			}
		}
		return out
	}
	var names []string
	seen := map[string]bool{}
	for _, rec := range append(append([]record(nil), setA...), setB...) {
		if !seen[rec.Workload] {
			seen[rec.Workload] = true
			names = append(names, rec.Workload)
		}
	}
	sort.Strings(names)

	ok := true
	fmt.Fprintf(w, "%-16s %-15s %-36s %-36s %8s %6s\n", "workload", "metric", "A median [q1, q3] n spread", "B median [q1, q3] n spread", "B/A-1", "bound")
	for _, wl := range names {
		for _, m := range b.EndToEnd {
			a, bb := values(setA, wl, m.Name), values(setB, wl, m.Name)
			if len(a) == 0 || len(bb) == 0 {
				fmt.Fprintf(w, "%-16s %-15s missing from a set (A %d, B %d values)\n", wl, m.Name, len(a), len(bb))
				ok = false
				continue
			}
			sa, sb := summarize(a), summarize(bb)
			diff := sb.Med/sa.Med - 1
			verdict := ""
			if math.Abs(diff) > m.Bound {
				verdict = "  DISAGREE"
				ok = false
			}
			fmt.Fprintf(w, "%-16s %-15s %-36s %-36s %+7.1f%% %5.0f%%%s\n", wl, m.Name,
				describe(sa, a), describe(sb, bb), 100*diff, 100*m.Bound, verdict)
		}
	}
	return ok, nil
}

func describe(s summary, xs []float64) string {
	sp, _ := spread(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d %.1f%%", s.Med, s.Q1, s.Q3, s.N, 100*sp)
}

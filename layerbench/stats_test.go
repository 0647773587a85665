package main

import (
	"math"
	"testing"
	"time"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 9, 3, 7}, [3]float64{2, 5, 8}},
		{[]float64{4}, [3]float64{4, 4, 4}},
	}
	for _, c := range cases {
		q1, m, q3, err := quartiles(c.xs)
		if err != nil {
			t.Fatalf("quartiles(%v): %v", c.xs, err)
		}
		got := [3]float64{q1, m, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
	if _, _, _, err := quartiles(nil); err == nil {
		t.Error("quartiles of no samples did not fail")
	}
	sp, err := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil || math.Abs(sp-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %v, %v; want 1", sp, err)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	p99, err := percentile(xs, 0.99)
	if err != nil || p99 != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 with 10 samples beyond", p99, err)
	}
	if _, err := percentile(xs[:999], 0.99); err == nil {
		t.Error("p99 of 999 samples (9 beyond) was reported")
	}
	if p50, err := percentile(xs[:20], 0.5); err != nil || p50 != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", p50, err)
	}
}

func TestThroughputIsAggregate(t *testing.T) {
	// 10 units in 1 s and 10 units in 4 s is 4 units/s, not the mean of
	// the two rates (6.25).
	got, err := throughput([]float64{10, 10}, []time.Duration{time.Second, 4 * time.Second})
	if err != nil || got != 4 {
		t.Errorf("throughput = %v, %v; want 4", got, err)
	}
	if _, err := throughput([]float64{1}, nil); err == nil {
		t.Error("mismatched throughput samples did not fail")
	}
}

func TestFastDecile(t *testing.T) {
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = float64(50 - i)
	}
	if d, err := fastDecile(xs); err != nil || d != 5 {
		t.Errorf("fast decile of 1..50 = %v, %v; want 5", d, err)
	}
	if d, err := fastDecile([]float64{3, 1, 2}); err != nil || d != 1 {
		t.Errorf("fast decile of 3 samples = %v, %v; want the smallest", d, err)
	}
	if _, err := fastDecile(nil); err == nil {
		t.Error("fast decile of no samples did not fail")
	}
}

package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a p99 from 200 samples is two data points, not a tail.
const minBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first quartile, median and third quartile of xs by
// the method of Python's statistics.quantiles(xs, n=4) (its default
// "exclusive" method), so spreads printed here match the ones a reader
// computes from the recorded values. A single sample is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64, err error) {
	switch len(xs) {
	case 0:
		return 0, 0, 0, fmt.Errorf("stats: no samples")
	case 1:
		return xs[0], xs[0], xs[0], nil
	}
	s := sorted(xs)
	n := len(s)
	m := n + 1
	var q [3]float64
	// Python's exclusive method, including its clamp of the rank to
	// [1, n-1] for small samples.
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], nil
}

// median is quartiles' middle value.
func median(xs []float64) (float64, error) {
	_, m, _, err := quartiles(xs)
	return m, err
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) (float64, error) {
	q1, m, q3, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	if m == 0 {
		return 0, fmt.Errorf("stats: zero median")
	}
	return (q3 - q1) / math.Abs(m), nil
}

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs. It
// refuses when fewer than minBeyond samples lie above that rank.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("stats: p%g of %d samples has %d beyond it, need %d", 100*p, n, beyond, minBeyond)
	}
	return sorted(xs)[rank-1], nil
}

// throughput is aggregate work per second: Σ work / Σ time, the rate a
// user waiting on all of the work sees (a mean of per-rep rates would
// overweight the fast reps).
func throughput(work []float64, times []time.Duration) (float64, error) {
	if len(work) != len(times) || len(work) == 0 {
		return 0, fmt.Errorf("stats: %d work samples for %d times", len(work), len(times))
	}
	var w, t float64
	for i := range work {
		w += work[i]
		t += times[i].Seconds()
	}
	if t <= 0 {
		return 0, fmt.Errorf("stats: no time measured")
	}
	return w / t, nil
}

// fastDecile is the nearest-rank 10th percentile of xs: with fewer than
// ten samples, the smallest. It is an estimate of an operation's cost
// without interference, not a tail to report, so unlike percentile it
// needs no samples beyond it.
func fastDecile(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: no samples")
	}
	return sorted(xs)[max(len(xs)/10, 1)-1], nil
}

// fastDecileNS is the fast-decile time of an operation that simulates
// records records, in host ns per record. Neighbours on a shared host only
// ever slow an operation down, and their slow phases last seconds to
// minutes, so the fast decile estimates the code's own cost; the median
// and the mean also carry the neighbours' load.
func fastDecileNS(records float64, times []time.Duration) (float64, error) {
	t, err := fastDecile(seconds(times))
	if err != nil {
		return 0, err
	}
	return t * 1e9 / records, nil
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// summary is a timing distribution as the report prints it.
type summary struct {
	N           int
	Q1, Med, Q3 float64
}

func summarize(xs []float64) summary {
	q1, m, q3, err := quartiles(xs)
	if err != nil {
		return summary{}
	}
	return summary{N: len(xs), Q1: q1, Med: m, Q3: q3}
}

func (s summary) String() string {
	return fmt.Sprintf("median %.4g [q1 %.4g, q3 %.4g] n=%d", s.Med, s.Q1, s.Q3, s.N)
}

// reportRates prints the time distribution of an operation that
// simulates records records (instrs instructions), its host ns per record
// by the fast decile (what sim_ns_per_rec reports), the first quartile
// and the median, and its aggregate simulated MIPS, Σ instructions / Σ
// time.
func reportRates(r *run, what string, records int, instrs uint64, times []time.Duration) {
	w := make([]float64, len(times))
	for i := range w {
		w[i] = float64(instrs) / 1e6
	}
	s := summarize(seconds(times))
	d, _ := fastDecile(seconds(times))
	mips, _ := throughput(w, times)
	per := 1e9 / float64(records)
	r.logf("  %-20s s per op: %s; ns/record at p10 %.1f, q1 %.1f, median %.1f; %.2f MIPS aggregate",
		what, s, d*per, s.Q1*per, s.Med*per, mips)
}

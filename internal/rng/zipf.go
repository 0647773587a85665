package rng

import "math"

// Zipf samples ranks 0..n-1 with probability proportional to
// 1/(rank+1)^theta. A small theta (~0) is near-uniform; theta in [0.8, 1.2]
// produces the hot/cold skew typical of branch working sets (a small hot set
// executes most dynamic branches while a long cold tail fills the footprint).
//
// The implementation precomputes the CDF and samples by binary search, which
// is exact, allocation-free at sample time and fast enough for trace
// generation (one search per dynamic control-flow decision at most).
type Zipf struct {
	cdf []float64
	src *Source
}

// NewZipf builds a sampler over n ranks with exponent theta, drawing
// randomness from src. n must be > 0.
func NewZipf(src *Source, n int, theta float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1.0 / math.Pow(float64(i+1), theta)
		cdf[i] = sum
	}
	inv := 1.0 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	cdf[n-1] = 1.0 // guard against rounding
	return &Zipf{cdf: cdf, src: src}
}

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.cdf) }

// Next returns a rank in [0, n), skewed toward low ranks.
func (z *Zipf) Next() int {
	u := z.src.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

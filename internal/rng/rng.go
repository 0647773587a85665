// Package rng provides the deterministic random-number machinery used by the
// workload generator and the simulator. Everything derives from explicit
// 64-bit seeds so that a given (application, configuration) pair always
// produces a bit-identical trace and simulation result.
package rng

// Source is a splitmix64 generator: tiny state, excellent statistical
// quality for simulation purposes, and trivially forkable.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Fork derives an independent child stream identified by id. Streams with
// distinct ids are decorrelated from the parent and from each other.
func (s *Source) Fork(id uint64) *Source {
	return New(mix(s.state ^ mix(id^0x9e3779b97f4a7c15)))
}

func mix(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Uint64 returns the next 64-bit value.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return mix(s.state)
}

// Uint32 returns the next 32-bit value.
func (s *Source) Uint32() uint32 { return uint32(s.Uint64() >> 32) }

// Intn returns a value in [0, n). n must be > 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Float64 returns a value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	return s.Float64() < p
}

// Range returns a value in [lo, hi]. Panics if hi < lo.
func (s *Source) Range(lo, hi int) int {
	if hi < lo {
		panic("rng: Range with hi < lo")
	}
	return lo + s.Intn(hi-lo+1)
}

// Geometric returns a sample from a geometric distribution with success
// probability p (mean ≈ 1/p), at least 1 and clamped to max. Used for loop
// trip counts and run lengths.
func (s *Source) Geometric(p float64, max int) int {
	if p <= 0 || p > 1 {
		panic("rng: Geometric needs p in (0,1]")
	}
	n := 1
	for n < max && !s.Bool(p) {
		n++
	}
	return n
}

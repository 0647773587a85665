package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d collisions between differently-seeded streams", same)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Fork(1)
	c2 := parent.Fork(2)
	c1again := parent.Fork(1)
	if c1.Uint64() != c1again.Uint64() {
		t.Error("Fork with same id should be reproducible")
	}
	if c1.Uint64() == c2.Uint64() {
		t.Error("Forks with different ids should differ")
	}
}

func TestIntnRange(t *testing.T) {
	s := New(3)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := s.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(9)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(13)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bool(0.3) rate = %v", p)
	}
}

func TestRange(t *testing.T) {
	s := New(17)
	for i := 0; i < 1000; i++ {
		v := s.Range(5, 10)
		if v < 5 || v > 10 {
			t.Fatalf("Range out of bounds: %d", v)
		}
	}
	if v := s.Range(4, 4); v != 4 {
		t.Errorf("degenerate Range = %d", v)
	}
}

func TestGeometricMean(t *testing.T) {
	s := New(19)
	sum := 0
	const n = 50000
	for i := 0; i < n; i++ {
		sum += s.Geometric(0.25, 1000)
	}
	mean := float64(sum) / n
	if mean < 3.5 || mean > 4.5 {
		t.Errorf("Geometric(0.25) mean = %v, want ~4", mean)
	}
}

func TestGeometricClamp(t *testing.T) {
	s := New(23)
	for i := 0; i < 1000; i++ {
		if v := s.Geometric(0.01, 5); v < 1 || v > 5 {
			t.Fatalf("Geometric clamp violated: %d", v)
		}
	}
}

func TestZipfBounds(t *testing.T) {
	s := New(29)
	z := NewZipf(s, 100, 1.0)
	for i := 0; i < 10000; i++ {
		if r := z.Next(); r < 0 || r >= 100 {
			t.Fatalf("Zipf rank out of range: %d", r)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	s := New(31)
	z := NewZipf(s, 1000, 1.0)
	counts := make([]int, 1000)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	// Rank 0 must dominate rank 500 heavily at theta=1.
	if counts[0] < counts[500]*20 {
		t.Errorf("insufficient skew: rank0=%d rank500=%d", counts[0], counts[500])
	}
	// Top 10% of ranks should capture the majority of samples.
	top := 0
	for i := 0; i < 100; i++ {
		top += counts[i]
	}
	if float64(top)/n < 0.5 {
		t.Errorf("top-10%% share = %v, want > 0.5", float64(top)/n)
	}
}

func TestZipfNearUniform(t *testing.T) {
	s := New(37)
	z := NewZipf(s, 10, 0.0)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)/n-0.1) > 0.01 {
			t.Errorf("theta=0 rank %d share = %v, want ~0.1", i, float64(c)/n)
		}
	}
}

package cache

import (
	"math/bits"
	"testing"

	"repro/internal/addr"
)

func TestBasicHitMiss(t *testing.T) {
	c, err := New(4096, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	a := addr.Build(1, 2, 0x100)
	if c.Access(a) {
		t.Error("cold access hit")
	}
	if !c.Access(a) {
		t.Error("second access missed")
	}
	if !c.Access(a.Add(63 - uint64(a.Offset())%64)) {
		t.Error("same-line access missed")
	}
}

func TestGeometryValidation(t *testing.T) {
	for _, g := range [][3]int{{0, 4, 64}, {4096, 4, 60}, {4096, 3, 64}, {1000, 4, 64}, {512 * 64, 512, 64}} {
		if _, err := New(g[0], g[1], g[2]); err == nil {
			t.Errorf("geometry %v accepted", g)
		}
	}
	if _, err := New(256*64, 256, 64); err != nil {
		t.Errorf("256 ways, the most an order byte can name, rejected: %v", err)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way, 2-set, 64B lines: 256B cache.
	c, err := New(256, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Three lines mapping to the same set (stride = sets*64 = 128).
	a := addr.New(0)
	b := addr.New(256)
	d := addr.New(512)
	c.Access(a)
	c.Access(b)
	c.Access(a) // a more recent than b
	c.Access(d) // evicts b
	if !c.Contains(a) {
		t.Error("recently used line evicted")
	}
	if c.Contains(b) {
		t.Error("LRU line survived")
	}
	if !c.Contains(d) {
		t.Error("filled line absent")
	}
}

func TestContainsDoesNotAllocate(t *testing.T) {
	c, _ := New(4096, 4, 64)
	a := addr.Build(1, 2, 0)
	if c.Contains(a) {
		t.Error("empty cache contains line")
	}
	if c.Access(a) {
		t.Error("Contains allocated the line")
	}
}

func TestAccessRange(t *testing.T) {
	c, _ := New(32768, 8, 64)
	lo := addr.Build(1, 2, 0x00)
	hi := addr.Build(1, 2, 0xFF) // 4 lines
	if m := c.AccessRange(lo, hi); m != 4 {
		t.Errorf("cold range misses = %d, want 4", m)
	}
	if m := c.AccessRange(lo, hi); m != 0 {
		t.Errorf("warm range misses = %d, want 0", m)
	}
	// Single-instruction block: one line.
	if m := c.AccessRange(addr.Build(1, 3, 0x10), addr.Build(1, 3, 0x10)); m != 1 {
		t.Errorf("single access misses = %d, want 1", m)
	}
}

func TestCapacityBehaviour(t *testing.T) {
	// 32 KiB, 8-way, 64B lines: 512 lines. A 1024-line working set thrashes;
	// a 256-line set fits.
	c, _ := New(32768, 8, 64)
	for round := 0; round < 3; round++ {
		for i := 0; i < 256; i++ {
			c.Access(addr.New(uint64(i * 64)))
		}
	}
	hits := 0
	for i := 0; i < 256; i++ {
		if c.Contains(addr.New(uint64(i * 64))) {
			hits++
		}
	}
	if hits != 256 {
		t.Errorf("fitting working set: %d/256 resident", hits)
	}
}

// refCache is the stamp-LRU cache the tag-word and recency-order layout
// replaced, kept as the reference FuzzCacheMatchesReference compares
// against: each line has a tag, a valid flag and the clock value of its
// last access, and a miss fills the first invalid way, else the way with
// the oldest stamp.
type refCache struct {
	ways                int
	lineShift, setShift uint
	indexMask           uint64

	tags  []uint64
	valid []bool
	stamp []uint64
	clock uint64
}

func newRefCache(totalBytes, ways, lineBytes int) *refCache {
	lines := totalBytes / lineBytes
	sets := lines / ways
	return &refCache{
		ways:      ways,
		lineShift: uint(bits.TrailingZeros(uint(lineBytes))),
		setShift:  uint(bits.TrailingZeros(uint(sets))),
		indexMask: uint64(sets - 1),
		tags:      make([]uint64, lines),
		valid:     make([]bool, lines),
		stamp:     make([]uint64, lines),
	}
}

func (r *refCache) line(a addr.VA) (int, uint64) {
	l := uint64(a) >> r.lineShift
	return int(l&r.indexMask) * r.ways, l >> r.setShift
}

func (r *refCache) access(a addr.VA) bool {
	base, tag := r.line(a)
	r.clock++
	for w := base; w < base+r.ways; w++ {
		if r.valid[w] && r.tags[w] == tag {
			r.stamp[w] = r.clock
			return true
		}
	}
	victim, oldest := base, ^uint64(0)
	for w := base; w < base+r.ways; w++ {
		if !r.valid[w] {
			victim = w
			break
		}
		if r.stamp[w] < oldest {
			victim, oldest = w, r.stamp[w]
		}
	}
	r.valid[victim], r.tags[victim], r.stamp[victim] = true, tag, r.clock
	return false
}

func (r *refCache) contains(a addr.VA) bool {
	base, tag := r.line(a)
	for w := base; w < base+r.ways; w++ {
		if r.valid[w] && r.tags[w] == tag {
			return true
		}
	}
	return false
}

// fuzzGeometry maps a fuzz byte to a 1- to 16-way cache of 1, 2 or 4 sets
// and 64 B lines, and the address pool it is driven over: ways+2 lines
// per set, so a set sees hits on its MRU way, hits on older ways and
// evictions. Tags reach past bit 40, so the tag word's high bits matter.
func fuzzGeometry(g uint8) (ways, sets int, pool []addr.VA) {
	ways, sets = 1<<(g%5), 1<<(g/5%3)
	for j := 0; j < ways+2; j++ {
		tag := uint64(j) | uint64(j)<<40
		for s := 0; s < sets; s++ {
			line := tag<<bits.TrailingZeros(uint(sets)) | uint64(s)
			pool = append(pool, addr.New(line<<6|uint64(j*s*7)%64))
		}
	}
	return ways, sets, pool
}

// FuzzCacheMatchesReference drives Cache and refCache with the same
// accesses and requires the same hit or miss on every one, and the same
// Contains answer for every pool line after every one.
func FuzzCacheMatchesReference(f *testing.F) {
	for _, ways := range []uint8{0, 1, 2, 3, 4} { // 1 to 16 ways
		for _, sets := range []uint8{0, 5} { // one or two sets
			ops := make([]byte, 256)
			x := uint32(ways)*31 + uint32(sets) + 1
			for i := range ops {
				x = x*1103515245 + 12345
				ops[i] = byte(x >> 16)
			}
			f.Add(ways+sets, ops)
		}
	}
	f.Fuzz(func(t *testing.T, g uint8, ops []byte) {
		ways, sets, pool := fuzzGeometry(g)
		c, err := New(ways*sets*64, ways, 64)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefCache(ways*sets*64, ways, 64)
		for i, op := range ops {
			a := pool[int(op)%len(pool)]
			if got, want := c.Access(a), ref.access(a); got != want {
				t.Fatalf("%d-way, %d-set: access %d to %#x hit=%v, reference %v", ways, sets, i, uint64(a), got, want)
			}
			for _, p := range pool {
				if got, want := c.Contains(p), ref.contains(p); got != want {
					t.Fatalf("%d-way, %d-set: after access %d, Contains(%#x)=%v, reference %v", ways, sets, i, uint64(p), got, want)
				}
			}
		}
	})
}

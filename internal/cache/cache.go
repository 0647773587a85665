// Package cache provides a generic set-associative cache model and the
// instruction-cache wrapper used by the core's decoupled frontend.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/addr"
)

// Cache is a set-associative cache with LRU replacement, tracking only
// presence (tags), which is all an instruction-fetch timing model needs.
type Cache struct {
	sets      int
	ways      int
	lineShift uint
	setShift  uint // log2(sets), hoisted out of the per-access tag split
	indexMask uint64

	tags  []uint64
	valid []bool
	stamp []uint64
	clock uint64
	// last caches each set's most recent hit (or fill) way: instruction
	// fetch revisits the same lines heavily, so most accesses resolve
	// without scanning the set.
	last []int32
}

// New builds a cache of totalBytes capacity with the given associativity
// and line size (both powers of two).
func New(totalBytes, ways, lineBytes int) (*Cache, error) {
	if totalBytes <= 0 || ways <= 0 || lineBytes <= 0 {
		return nil, fmt.Errorf("cache: non-positive geometry")
	}
	if lineBytes&(lineBytes-1) != 0 {
		return nil, fmt.Errorf("cache: line size %d not a power of two", lineBytes)
	}
	lines := totalBytes / lineBytes
	if lines == 0 || lines%ways != 0 {
		return nil, fmt.Errorf("cache: %dB / %dB lines not divisible into %d ways", totalBytes, lineBytes, ways)
	}
	sets := lines / ways
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache: sets %d not a power of two", sets)
	}
	return &Cache{
		sets:      sets,
		ways:      ways,
		lineShift: uint(bits.TrailingZeros(uint(lineBytes))),
		setShift:  uint(bits.TrailingZeros(uint(sets))),
		indexMask: uint64(sets - 1),
		tags:      make([]uint64, lines),
		valid:     make([]bool, lines),
		stamp:     make([]uint64, lines),
		last:      make([]int32, sets),
	}, nil
}

// line splits an address into set and tag.
func (c *Cache) line(a addr.VA) (int, uint64) {
	l := uint64(a) >> c.lineShift
	return int(l & c.indexMask), l >> c.setShift
}

// Access touches the line holding a, allocating it on a miss. It returns
// whether the access hit.
func (c *Cache) Access(a addr.VA) bool {
	set, tag := c.line(a)
	base := set * c.ways
	c.clock++
	// Fast path: the set's most recent hit way (the common case for
	// instruction fetch, which re-touches the same lines block after block).
	if i := base + int(c.last[set]); c.valid[i] && c.tags[i] == tag {
		c.stamp[i] = c.clock
		return true
	}
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			c.stamp[base+w] = c.clock
			c.last[set] = int32(w)
			return true
		}
	}
	// Miss: fill into invalid or LRU way.
	victim := base
	oldest := ^uint64(0)
	for w := 0; w < c.ways; w++ {
		if !c.valid[base+w] {
			victim = base + w
			break
		}
		if c.stamp[base+w] < oldest {
			oldest = c.stamp[base+w]
			victim = base + w
		}
	}
	c.valid[victim] = true
	c.tags[victim] = tag
	c.stamp[victim] = c.clock
	c.last[set] = int32(victim - base)
	return false
}

// Clone returns a deep copy of the cache: the clone and the receiver share
// no mutable state, so each can be driven independently afterwards, as a
// snapshot of warmed state must be.
func (c *Cache) Clone() *Cache {
	d := *c
	d.tags = append([]uint64(nil), c.tags...)
	d.valid = append([]bool(nil), c.valid...)
	d.stamp = append([]uint64(nil), c.stamp...)
	d.last = append([]int32(nil), c.last...)
	return &d
}

// Contains reports presence without updating replacement state.
func (c *Cache) Contains(a addr.VA) bool {
	set, tag := c.line(a)
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			return true
		}
	}
	return false
}

// LineBytes returns the line size.
func (c *Cache) LineBytes() int { return 1 << c.lineShift }

// Reset empties the cache.
func (c *Cache) Reset() {
	for i := range c.valid {
		c.valid[i] = false
	}
	c.clock = 0
}

// AccessRange touches every line overlapping [lo, hi] and returns the
// number of misses. The frontend uses it to fetch a basic block.
func (c *Cache) AccessRange(lo, hi addr.VA) int {
	if hi < lo {
		lo, hi = hi, lo
	}
	misses := 0
	lineBytes := uint64(1) << c.lineShift
	for a := uint64(lo) &^ (lineBytes - 1); a <= uint64(hi); a += lineBytes {
		if !c.Access(addr.VA(a)) {
			misses++
		}
	}
	return misses
}

// Package cache provides a generic set-associative cache model and the
// instruction-cache wrapper used by the core's decoupled frontend.
package cache

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/addr"
)

// lineValid marks a live line's tag word; a free line's word is 0. VAs
// have addr.VABits bits, so no tag reaches bit 63 and the two never meet.
const lineValid = 1 << 63

// maxWays is the most ways an order byte can name.
const maxWays = 256

// Cache is a set-associative cache with exact LRU replacement, tracking
// only presence (tags), which is all an instruction-fetch timing model
// needs. Its state is two slices, one word and one byte per line:
//
//   - tags holds each line's tag word, lineValid|tag when live;
//   - order holds each set's ways from most to least recently used.
//
// Nothing frees a line, and a miss fills the lowest-index free way, so a
// set with k live lines holds them in ways 0..k-1 and lists them in the
// first k bytes of its order; the rest of its order is zero padding.
type Cache struct {
	ways      int
	lineShift uint
	setShift  uint // log2(sets), hoisted out of the per-access tag split
	indexMask uint64

	tags  []uint64
	order []uint8
}

// New builds a cache of totalBytes capacity with the given associativity
// (at most 256) and line size (both powers of two).
func New(totalBytes, ways, lineBytes int) (*Cache, error) {
	if totalBytes <= 0 || ways <= 0 || lineBytes <= 0 {
		return nil, fmt.Errorf("cache: non-positive geometry")
	}
	if ways > maxWays {
		return nil, fmt.Errorf("cache: %d ways, over the %d an order byte can name", ways, maxWays)
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
		ways:      ways,
		lineShift: uint(bits.TrailingZeros(uint(lineBytes))),
		setShift:  uint(bits.TrailingZeros(uint(sets))),
		indexMask: uint64(sets - 1),
		tags:      make([]uint64, lines),
		order:     make([]uint8, lines),
	}, nil
}

// line splits an address into the first line of its set and its tag word.
func (c *Cache) line(a addr.VA) (int, uint64) {
	l := uint64(a) >> c.lineShift
	return int(l&c.indexMask) * c.ways, lineValid | l>>c.setShift
}

// Access touches the line holding a, allocating it on a miss. It returns
// whether the access hit.
func (c *Cache) Access(a addr.VA) bool {
	base, word := c.line(a)
	// Fast path: the set's most recently used way (the common case for
	// instruction fetch, which re-touches the same lines block after block).
	// A hit there leaves the recency order as it is.
	if c.tags[base+int(c.order[base])] == word {
		return true
	}
	tags := c.tags[base : base+c.ways]
	order := c.order[base : base+c.ways]
	for w, t := range tags {
		if t == word {
			touch(order, uint8(w))
			return true
		}
		if t == 0 {
			// Ways w and up are all free: fill the lowest-index one.
			tags[w] = word
			touch(order, uint8(w))
			return false
		}
	}
	// A full set: refill its least recently used way.
	victim := order[len(order)-1]
	tags[victim] = word
	touch(order, victim)
	return false
}

// touch makes way w the first of order, moving the ways before it down one
// place. For a way that order does not list yet (a fill of a free way) it
// shifts the whole list, dropping the last byte, which is padding then.
func touch(order []uint8, w uint8) {
	prev := w
	for i, o := range order {
		order[i] = prev
		if o == w {
			return
		}
		prev = o
	}
}

// Contains reports presence without updating replacement state.
func (c *Cache) Contains(a addr.VA) bool {
	base, word := c.line(a)
	return slices.Contains(c.tags[base:base+c.ways], word)
}

// AccessRange touches every line overlapping [lo, hi], lo <= hi, and
// returns the number of misses. The frontend uses it to fetch a basic block.
func (c *Cache) AccessRange(lo, hi addr.VA) int {
	misses := 0
	lineBytes := uint64(1) << c.lineShift
	for a := uint64(lo) &^ (lineBytes - 1); a <= uint64(hi); a += lineBytes {
		if !c.Access(addr.VA(a)) {
			misses++
		}
	}
	return misses
}

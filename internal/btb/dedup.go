package btb

import (
	"fmt"
	"math/bits"

	"repro/internal/addr"
)

// DedupTable is a content-addressed value store: the building block for the
// deduplicated target, page and region tables. Values are located by
// hashing their content to a set and comparing ways; FindOrInsert returns a
// stable pointer (set×ways+way) that monitor entries store in place of the
// value itself.
//
// The table carries no tags and no reverse pointers: when a value is evicted
// the monitor entries pointing at it silently dangle and will produce a
// wrong target on their next use (§4.4.2 measures this at 0.06%; the design
// accepts the resteer instead of paying for invalidation hardware).
type DedupTable struct {
	sets, ways int
	setMask    uint64
	valid      []bool
	vals       []uint64
	repl       SRRIPSets

	// Evictions counts live values displaced since construction/Reset —
	// each one potentially leaves dangling monitor pointers.
	Evictions uint64

	// refs, when enabled, holds a 3-bit saturating reference count per
	// entry; victims prefer dead (ref==0) slots. Saturated counters stick
	// (conservatively treated as live), which a real design would accept as
	// the price of a narrow counter.
	refs []uint8
}

// EnableRefcounts switches the table to refcounted victim selection. The
// full-target DedupBTB needs this: unlike PDede's page/region components,
// whose tiny cardinality keeps eviction rare, a 57-bit target table churns
// at the monitor's allocation rate and would otherwise shred live pointers.
func (t *DedupTable) EnableRefcounts() {
	t.refs = make([]uint8, len(t.vals))
}

// Acquire notes a new monitor pointer to ptr.
func (t *DedupTable) Acquire(ptr int) {
	if t.refs == nil || ptr < 0 || ptr >= len(t.refs) {
		return
	}
	if t.refs[ptr] < 7 {
		t.refs[ptr]++
	}
}

// Release drops a monitor pointer to ptr. Saturated counters stay put.
func (t *DedupTable) Release(ptr int) {
	if t.refs == nil || ptr < 0 || ptr >= len(t.refs) {
		return
	}
	if t.refs[ptr] > 0 && t.refs[ptr] < 7 {
		t.refs[ptr]--
	}
}

// NewDedupTable builds a table with the given total entries and
// associativity. entries/ways must be a power of two; ways == entries gives
// a fully-associative table (the 4-entry Region-BTB).
func NewDedupTable(entries, ways int) (*DedupTable, error) {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		return nil, fmt.Errorf("btb: dedup table %d entries / %d ways invalid", entries, ways)
	}
	sets := entries / ways
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("btb: dedup table sets %d not a power of two", sets)
	}
	t := &DedupTable{
		sets: sets, ways: ways,
		setMask: uint64(sets - 1),
		valid:   make([]bool, entries),
		vals:    make([]uint64, entries),
		repl:    NewSRRIPSets(sets, ways, 2),
	}
	return t, nil
}

// Entries returns total capacity.
func (t *DedupTable) Entries() int { return t.sets * t.ways }

// PtrBits is the width of a pointer into this table.
func (t *DedupTable) PtrBits() uint64 {
	n := t.sets * t.ways
	if n <= 1 {
		return 1
	}
	return uint64(bits.Len(uint(n - 1)))
}

// set maps a value to its set index; inlines into every Find probe.
func (t *DedupTable) set(v uint64) int {
	return int(addr.Mix64(v) & t.setMask)
}

// Find returns the pointer holding value v, if present.
//
// The guarded up-front window lets the prove pass elide every per-way
// bounds check in the scan (both windows share the length end-base, so
// one range loop covers both); the guard itself is unreachable under the
// sets*ways = len construction invariant.
func (t *DedupTable) Find(v uint64) (int, bool) {
	s := t.set(v)
	base := s * t.ways
	end := base + t.ways
	if base < 0 || end < base || end > len(t.vals) || end > len(t.valid) {
		return 0, false
	}
	vals := t.vals[base:end]
	valid := t.valid[base:end]
	for w := range vals {
		if valid[w] && vals[w] == v {
			return base + w, true
		}
	}
	return 0, false
}

// FindOrInsert locates v, allocating (possibly evicting) if absent. evicted
// reports whether a live value was displaced — the event that creates
// dangling monitor pointers.
func (t *DedupTable) FindOrInsert(v uint64) (ptr int, evicted bool) {
	s := t.set(v)
	base := s * t.ways
	for w := 0; w < t.ways; w++ {
		if t.valid[base+w] && t.vals[base+w] == v {
			t.repl.Touch(s, w)
			return base + w, false
		}
	}
	for w := 0; w < t.ways; w++ {
		if !t.valid[base+w] {
			t.valid[base+w] = true
			t.vals[base+w] = v
			t.repl.Insert(s, w)
			return base + w, false
		}
	}
	if t.refs != nil {
		// Prefer a dead slot before displacing a live value.
		for w := 0; w < t.ways; w++ {
			if t.refs[base+w] == 0 {
				t.vals[base+w] = v
				t.repl.Insert(s, w)
				return base + w, false
			}
		}
	}
	w := t.repl.Victim(s, nil)
	t.vals[base+w] = v
	t.repl.Insert(s, w)
	t.Evictions++
	return base + w, true
}

// Get dereferences a pointer. ok is false for a never-written slot.
//
// The guard ranges ptr against both parallel arrays so the prove pass
// elides the loads' bounds checks; this dereference sits on every
// full-format Lookup and predictFrom, where it inlines.
func (t *DedupTable) Get(ptr int) (uint64, bool) {
	if ptr < 0 || ptr >= len(t.vals) || ptr >= len(t.valid) || !t.valid[ptr] {
		return 0, false
	}
	return t.vals[ptr], true
}

// Touch promotes the pointed-at entry in its set's replacement order.
func (t *DedupTable) Touch(ptr int) {
	if ptr < 0 || ptr >= len(t.vals) {
		return
	}
	t.repl.Touch(ptr/t.ways, ptr%t.ways)
}

// Reset clears the table.
func (t *DedupTable) Reset() {
	for i := range t.valid {
		t.valid[i] = false
		t.vals[i] = 0
	}
	t.repl.Reset()
	t.Evictions = 0
	if t.refs != nil {
		for i := range t.refs {
			t.refs[i] = 0
		}
	}
}

// StorageBits returns the table's storage given the payload width per value
// (pointer-table entries also carry their SRRIP bits, plus the reference
// counter when enabled).
func (t *DedupTable) StorageBits(valueBits uint64) uint64 {
	per := valueBits + t.repl.Bits()
	if t.refs != nil {
		per += 3
	}
	return uint64(t.sets*t.ways) * per
}

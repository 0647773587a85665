package btb

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/addr"
)

// Auditable is implemented by designs that can deep-check their own internal
// invariants: refcount sums matching live pointers, no dangling monitor
// pointers, per-set tag uniqueness, well-formed stored addresses. Audit is a
// pure check — it must not mutate prediction or replacement state — and
// returns a descriptive error naming the first violated invariant.
//
// Audits exist because BTB bookkeeping bugs do not crash: a stale refcount
// or a mis-wired pointer silently shifts MPKI. The differential runner
// (internal/oracle) calls Audit every N steps, the core models call it when
// Config.AuditEvery is set, and tests call it after targeted corruption.
type Auditable interface {
	Audit() error
}

// StateDigester is implemented by designs that can hash their prediction
// state. Divergence reports embed the digest so two runs reaching the same
// step can be compared without dumping full state.
type StateDigester interface {
	StateDigest() uint64
}

// StateDigestOf returns the design's state digest, or 0 when the design
// does not expose one.
func StateDigestOf(tp TargetPredictor) uint64 {
	if d, ok := tp.(StateDigester); ok {
		return d.StateDigest()
	}
	return 0
}

// --- DedupTable ------------------------------------------------------------

// ValidSlot reports whether ptr dereferences to a live value (in range and
// written at least once since Reset).
func (t *DedupTable) ValidSlot(ptr int) bool {
	return ptr >= 0 && ptr < len(t.vals) && t.valid[ptr]
}

// Audit deep-checks the table's structural invariants: every valid slot's
// value must hash to the set holding it (otherwise Find/FindOrInsert can
// never locate it again — a silent dedup failure that duplicates values),
// and no two valid slots of a set may hold equal values (the defining
// deduplication property).
func (t *DedupTable) Audit() error {
	for s := 0; s < t.sets; s++ {
		base := s * t.ways
		for w := 0; w < t.ways; w++ {
			if !t.valid[base+w] {
				continue
			}
			v := t.vals[base+w]
			if home := t.set(v); home != s {
				return fmt.Errorf("btb: dedup slot %d holds %#x whose home set is %d, not %d",
					base+w, v, home, s)
			}
			for w2 := w + 1; w2 < t.ways; w2++ {
				if t.valid[base+w2] && t.vals[base+w2] == v {
					return fmt.Errorf("btb: dedup set %d stores %#x twice (ways %d and %d)",
						s, v, w, w2)
				}
			}
		}
	}
	return nil
}

// AuditRefcounts cross-checks the per-slot reference counters against an
// externally recomputed live-pointer census: live[ptr] must be the number of
// monitor entries currently pointing at ptr. Unsaturated counters (< 7)
// track exactly; saturated counters stick by design (§4.4.2's narrow-counter
// tradeoff) and carry no information, so they are skipped.
func (t *DedupTable) AuditRefcounts(live []int) error {
	if t.refs == nil {
		return nil
	}
	if len(live) != len(t.refs) {
		return fmt.Errorf("btb: refcount census covers %d slots, table has %d", len(live), len(t.refs))
	}
	for ptr, r := range t.refs {
		if r >= 7 {
			continue // saturated: conservatively live, no exact count
		}
		if int(r) != live[ptr] {
			return fmt.Errorf("btb: slot %d refcount %d but %d live pointer(s)", ptr, r, live[ptr])
		}
	}
	return nil
}

// --- Baseline --------------------------------------------------------------

// Audit implements Auditable: per-set tag uniqueness (a duplicated tag makes
// Lookup/Update race between two entries for one PC) and 57-bit-clean stored
// targets.
func (b *Baseline) Audit() error {
	for s := 0; s < b.sets; s++ {
		base := s * b.ways
		if w, w2, ok := b.tags.Twice(base, b.ways); ok {
			return fmt.Errorf("btb: baseline set %d holds tag %#x twice (ways %d and %d)",
				s, b.tags.Tag(base+w), w, w2)
		}
		for w := 0; w < b.ways; w++ {
			if !b.tags.Live(base + w) {
				continue
			}
			e := &b.entries[base+w]
			if uint64(e.target)&^addr.Mask != 0 {
				return fmt.Errorf("btb: baseline set %d way %d target %#x exceeds %d bits",
					s, w, uint64(e.target), addr.VABits)
			}
			if e.conf > 3 {
				return fmt.Errorf("btb: baseline set %d way %d confidence %d exceeds 2 bits", s, w, e.conf)
			}
		}
	}
	return nil
}

// StateDigest implements StateDigester.
func (b *Baseline) StateDigest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for i := range b.entries {
		if !b.tags.Live(i) {
			continue
		}
		e := &b.entries[i]
		put(uint64(i))
		put(uint64(b.tags.Tag(i)))
		put(uint64(e.target))
		put(uint64(e.conf))
	}
	return h.Sum64()
}

// --- DedupBTB --------------------------------------------------------------

// Audit implements Auditable: per-set monitor tag uniqueness, every live
// monitor pointer dereferenceable (slots never invalidate outside Reset, so
// an unreadable pointer is corruption, not the paper's benign value-reuse
// dangling), refcounts equal to the recomputed live-pointer census, and the
// target table's own dedup invariants.
func (d *DedupBTB) Audit() error {
	live := make([]int, d.targets.Entries())
	for s := 0; s < d.sets; s++ {
		base := s * d.ways
		if w, w2, ok := d.tags.Twice(base, d.ways); ok {
			return fmt.Errorf("btb: dedup monitor set %d holds tag %#x twice (ways %d and %d)",
				s, d.tags.Tag(base+w), w, w2)
		}
		for w := 0; w < d.ways; w++ {
			if !d.tags.Live(base + w) {
				continue
			}
			e := &d.entries[base+w]
			if !d.targets.ValidSlot(int(e.ptr)) {
				return fmt.Errorf("btb: dedup monitor set %d way %d pointer %d does not dereference",
					s, w, e.ptr)
			}
			live[e.ptr]++
		}
	}
	if err := d.targets.AuditRefcounts(live); err != nil {
		return err
	}
	return d.targets.Audit()
}

// StateDigest implements StateDigester.
func (d *DedupBTB) StateDigest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for i := range d.entries {
		if !d.tags.Live(i) {
			continue
		}
		e := &d.entries[i]
		put(uint64(i))
		put(uint64(d.tags.Tag(i)))
		put(uint64(e.ptr))
		if v, ok := d.targets.Get(int(e.ptr)); ok {
			put(v)
		}
	}
	return h.Sum64()
}

// --- Perfect ---------------------------------------------------------------

// Audit implements Auditable: the map-backed design only has to keep its
// stored targets 57-bit clean. Keys are visited in sorted order so the
// first reported violation is the same on every run.
func (p *Perfect) Audit() error {
	pcs := make([]addr.VA, 0, len(p.targets))
	for pc := range p.targets {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	for _, pc := range pcs {
		e := p.targets[pc]
		if uint64(e.target)&^addr.Mask != 0 {
			return fmt.Errorf("btb: perfect entry %v target %#x exceeds %d bits",
				pc, uint64(e.target), addr.VABits)
		}
	}
	return nil
}

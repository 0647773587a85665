// Package oracle cross-validates every BTB design in this repository
// against unbounded, obviously-correct reference predictors.
//
// The problem it solves: PDede's three mechanisms (partitioning,
// BTBM-mediated deduplication, delta encoding) fail silently. A stale
// refcount, a dangling BTBM pointer, or a delta entry served with the wrong
// offset does not crash — it shifts MPKI, which is exactly the failure mode
// that invalidates a reproduction. End-to-end miss rates cannot distinguish
// "the design behaves as specified" from "two bugs cancel on this trace".
//
// The package therefore provides three tools:
//
//   - Reference — a plain map[PC]target predictor with the paper's
//     taken-only allocation and confidence-guarded target replacement, and
//     no capacity, aliasing or latency effects. RefPDede layers PDede's
//     delta/partition semantics on the same unbounded map, storing each
//     entry's page and region inline instead of deduplicating them.
//   - Diff — a differential runner that drives a real design and its oracle
//     in lockstep over one trace, compares predictions, and classifies
//     every disagreement as a legal capacity/aliasing effect or a fatal
//     semantic divergence (a predicted target that cannot be derived from
//     anything the design ever observed).
//   - periodic audits — every AuditEvery steps the runner calls the
//     design's Audit (btb.Auditable) deep-check, catching bookkeeping
//     corruption even while predictions still happen to agree.
package oracle

import (
	"fmt"
	"sort"

	"repro/internal/addr"
	"repro/internal/btb"
	"repro/internal/isa"
	"repro/internal/pdede"
)

// Reference is the unbounded reference predictor: one entry per branch PC,
// holding the paper's per-entry semantics (taken-only allocation, returns
// excluded unless configured, 2-bit confidence hysteresis on target
// changes) with no sets, ways, tags or replacement. Everything a bounded
// design does differently from Reference must be attributable to capacity,
// aliasing or its own documented mechanisms.
type Reference struct {
	storeReturns bool
	entries      map[addr.VA]*refEntry
}

type refEntry struct {
	target addr.VA
	conf   uint8
}

// NewReference builds an empty reference predictor. storeReturns mirrors
// the §5.7 configuration where return instructions also allocate.
func NewReference(storeReturns bool) *Reference {
	return &Reference{storeReturns: storeReturns, entries: make(map[addr.VA]*refEntry)}
}

// Name implements btb.TargetPredictor.
func (r *Reference) Name() string { return "oracle-reference" }

// Lookup implements btb.TargetPredictor.
func (r *Reference) Lookup(pc addr.VA) btb.Lookup {
	if e, ok := r.entries[pc]; ok {
		return btb.Lookup{Hit: true, Target: e.target}
	}
	return btb.Lookup{}
}

// Update implements btb.TargetPredictor with the paper's update rules: only
// taken branches train, a matching target raises confidence, a differing
// target first drains confidence and only then replaces.
func (r *Reference) Update(b isa.Branch, prior btb.Lookup) {
	if !b.Taken {
		return
	}
	if b.Kind.IsReturn() && !r.storeReturns {
		return
	}
	e, ok := r.entries[b.PC]
	if !ok {
		r.entries[b.PC] = &refEntry{target: b.Target}
		return
	}
	if e.target == b.Target {
		if e.conf < 3 {
			e.conf++
		}
		return
	}
	if e.conf > 0 {
		e.conf--
		return
	}
	e.target = b.Target
}

// StorageBits implements btb.TargetPredictor (idealized: unbounded).
func (r *Reference) StorageBits() uint64 { return 0 }

// Reset implements btb.TargetPredictor.
func (r *Reference) Reset() { r.entries = make(map[addr.VA]*refEntry) }

// Audit implements btb.Auditable: stored targets must stay 57-bit clean.
// Keys are visited in sorted order so the first reported violation is
// deterministic.
func (r *Reference) Audit() error {
	for _, pc := range sortedPCs(r.entries) {
		e := r.entries[pc]
		if uint64(e.target)&^addr.Mask != 0 {
			return fmt.Errorf("oracle: reference entry %v target %#x exceeds %d bits",
				pc, uint64(e.target), addr.VABits)
		}
		if e.conf > 3 {
			return fmt.Errorf("oracle: reference entry %v confidence %d exceeds 2 bits", pc, e.conf)
		}
	}
	return nil
}

// sortedPCs returns a reference map's keys in ascending order, so audits
// report the same first violation on every run.
func sortedPCs[V any](m map[addr.VA]V) []addr.VA {
	pcs := make([]addr.VA, 0, len(m))
	for pc := range m {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	return pcs
}

// ForDesign returns the oracle matched to a concrete design: RefPDede for
// PDede (so delta/partition semantics are mirrored, including the
// DisableDelta and StoreReturns configuration), Reference for everything
// else. The §5.7 StoreReturns baseline configuration has no marker on the
// design side beyond behaviour, so callers running a returns-in-BTB study
// should construct NewReference(true) themselves.
func ForDesign(tp btb.TargetPredictor) btb.TargetPredictor {
	if p, ok := tp.(*pdede.PDede); ok {
		cfg := p.Config()
		return NewRefPDede(cfg.DisableDelta, cfg.StoreReturns)
	}
	return NewReference(false)
}

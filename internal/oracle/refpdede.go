package oracle

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/btb"
	"repro/internal/isa"
)

// RefPDede is the slow reference PDede: the per-entry semantics of §4.4
// (taken-only allocation, delta vs pointer encoding chosen by page locality,
// 2-bit confidence hysteresis, same update ordering) layered on an unbounded
// map, with the partition state stored inline instead of behind dedup
// pointers. There are no sets, ways, tags, replacement, refcounts or
// dangling pointers — no mechanism the real implementation maintains
// incrementally. That makes it obviously correct by inspection and a fair
// oracle for all three PDede configurations.
type RefPDede struct {
	disableDelta bool
	storeReturns bool
	entries      map[addr.VA]*refPDedeEntry
}

type refPDedeEntry struct {
	// delta entries reproduce the target from the PC's own page + offset;
	// pointer-path entries store the full page and region components the
	// real design reaches through the Page-BTB and Region-BTB.
	delta  bool
	offset uint16
	page   addr.PageNum
	region addr.RegionID
	conf   uint8
}

// NewRefPDede builds the reference. disableDelta mirrors the
// partitioning-only ablation; storeReturns the §5.7 configuration.
func NewRefPDede(disableDelta, storeReturns bool) *RefPDede {
	return &RefPDede{
		disableDelta: disableDelta,
		storeReturns: storeReturns,
		entries:      make(map[addr.VA]*refPDedeEntry),
	}
}

// Name implements btb.TargetPredictor.
func (r *RefPDede) Name() string { return "oracle-refpdede" }

func (e *refPDedeEntry) reconstruct(pc addr.VA) addr.VA {
	if e.delta {
		return pc.WithOffset(addr.PageOffset(e.offset))
	}
	return addr.Build(e.region, e.page, addr.PageOffset(e.offset))
}

// Lookup implements btb.TargetPredictor. Pointer-path entries report the
// real design's one-cycle Page/Region indirection penalty so latency-aware
// comparisons stay meaningful.
func (r *RefPDede) Lookup(pc addr.VA) btb.Lookup {
	e, ok := r.entries[pc]
	if !ok {
		return btb.Lookup{}
	}
	l := btb.Lookup{Hit: true, Target: e.reconstruct(pc)}
	if !e.delta {
		l.ExtraLatency = 1
	}
	return l
}

// Update implements btb.TargetPredictor, mirroring PDede.Update without the
// capacity-driven paths (no victim selection, no narrow-way invalidation, no
// stale-pointer repair — pointers cannot go stale here).
func (r *RefPDede) Update(b isa.Branch, prior btb.Lookup) {
	if !b.Taken {
		return
	}
	if b.Kind.IsReturn() && !r.storeReturns {
		return
	}
	samePage := b.PC.SamePage(b.Target) && !r.disableDelta
	e, ok := r.entries[b.PC]
	if !ok {
		r.entries[b.PC] = newRefPDedeEntry(b.Target, samePage)
		return
	}
	if e.reconstruct(b.PC) == b.Target {
		if e.conf < 3 {
			e.conf++
		}
		return
	}
	if e.conf > 0 {
		e.conf--
		return
	}
	*e = *newRefPDedeEntry(b.Target, samePage)
}

func newRefPDedeEntry(target addr.VA, samePage bool) *refPDedeEntry {
	e := &refPDedeEntry{
		delta:  samePage,
		offset: uint16(target.Offset()),
	}
	if !samePage {
		e.page = target.Page()
		e.region = target.Region()
	}
	return e
}

// StorageBits implements btb.TargetPredictor (idealized: unbounded).
func (r *RefPDede) StorageBits() uint64 { return 0 }

// Reset implements btb.TargetPredictor.
func (r *RefPDede) Reset() { r.entries = make(map[addr.VA]*refPDedeEntry) }

// Audit implements btb.Auditable: every reconstructed target must be 57-bit
// clean and decompose back into exactly the stored components, delta entries
// must stay inside their PC's page, and the configuration gates must hold.
func (r *RefPDede) Audit() error {
	for _, pc := range sortedPCs(r.entries) {
		e := r.entries[pc]
		if e.conf > 3 {
			return fmt.Errorf("oracle: refpdede entry %v confidence %d exceeds 2 bits", pc, e.conf)
		}
		if e.offset >= 1<<addr.OffsetBits {
			return fmt.Errorf("oracle: refpdede entry %v offset %#x exceeds %d bits",
				pc, e.offset, addr.OffsetBits)
		}
		if e.delta && r.disableDelta {
			return fmt.Errorf("oracle: refpdede entry %v is delta-encoded with delta encoding disabled", pc)
		}
		t := e.reconstruct(pc)
		if uint64(t)&^addr.Mask != 0 {
			return fmt.Errorf("oracle: refpdede entry %v reconstructs %#x beyond %d bits",
				pc, uint64(t), addr.VABits)
		}
		if e.delta {
			if !pc.SamePage(t) {
				return fmt.Errorf("oracle: refpdede delta entry %v reconstructs %v outside its page", pc, t)
			}
		} else if t.Page() != e.page || t.Region() != e.region || uint16(t.Offset()) != e.offset {
			return fmt.Errorf("oracle: refpdede entry %v does not round-trip its components", pc)
		}
	}
	return nil
}

var (
	_ btb.TargetPredictor = (*Reference)(nil)
	_ btb.TargetPredictor = (*RefPDede)(nil)
	_ btb.Auditable       = (*Reference)(nil)
	_ btb.Auditable       = (*RefPDede)(nil)
)

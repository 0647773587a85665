package pdede

import (
	"fmt"
	"hash/fnv"

	"repro/internal/addr"
	"repro/internal/btb"
)

// Audit implements btb.Auditable: a deep check of every BTBM entry and both
// dedup tables. The invariants are exactly the bookkeeping that, when
// broken, corrupts MPKI silently instead of crashing:
//
//   - per-set tag uniqueness (two entries answering one PC);
//   - every different-page entry's Page/Region pointer dereferences (slots
//     never invalidate outside Reset, so an unreadable pointer is a wiring
//     bug, not the paper's benign value-reuse dangling);
//   - stored offsets fit the 12-bit field, so a delta entry's reconstructed
//     target pc.WithOffset(offset) always lands inside the PC's own page;
//   - narrow (same-page-only) ways never hold pointer-path entries, and
//     delta state only appears where the configuration allows it;
//   - MultiTarget ring/register state stays in range;
//   - the Page/Region tables keep their content-addressing invariants.
func (p *PDede) Audit() error {
	for s := 0; s < p.cfg.Sets; s++ {
		base := s * p.cfg.Ways
		if w, w2, ok := p.tags.Twice(base, p.cfg.Ways); ok {
			return fmt.Errorf("pdede: set %d holds tag %#x twice (ways %d and %d)",
				s, p.tags.Tag(base+w), w, w2)
		}
		for w := 0; w < p.cfg.Ways; w++ {
			if !p.tags.Live(base + w) {
				continue
			}
			e := &p.entries[base+w]
			if e.offset >= 1<<addr.OffsetBits {
				return fmt.Errorf("pdede: set %d way %d offset %#x exceeds %d bits",
					s, w, e.offset, addr.OffsetBits)
			}
			if e.delta() {
				if p.cfg.DisableDelta {
					return fmt.Errorf("pdede: set %d way %d is delta-encoded with delta encoding disabled", s, w)
				}
			} else {
				if p.narrow(w) {
					return fmt.Errorf("pdede: narrow way %d of set %d holds a different-page entry", w, s)
				}
				if !p.pages.ValidSlot(int(e.pagePtr)) {
					return fmt.Errorf("pdede: set %d way %d page pointer %d does not dereference", s, w, e.pagePtr)
				}
				if !p.regions.ValidSlot(int(e.regionPtr)) {
					return fmt.Errorf("pdede: set %d way %d region pointer %d does not dereference", s, w, e.regionPtr)
				}
			}
			if e.ntValid() {
				if p.cfg.Variant != MultiTarget {
					return fmt.Errorf("pdede: set %d way %d has NT state outside the MultiTarget variant", s, w)
				}
				if !e.delta() {
					return fmt.Errorf("pdede: set %d way %d packs an NT offset into live pointer fields", s, w)
				}
				if e.ntOffset >= 1<<addr.OffsetBits {
					return fmt.Errorf("pdede: set %d way %d NT offset %#x exceeds %d bits",
						s, w, e.ntOffset, addr.OffsetBits)
				}
			}
		}
	}
	if p.ntArmed && p.cfg.Variant != MultiTarget {
		return fmt.Errorf("pdede: NT register armed outside the MultiTarget variant")
	}
	for i, idx := range p.lastRing {
		if idx < -1 || idx >= len(p.entries) {
			return fmt.Errorf("pdede: last-BTBM ring slot %d holds out-of-range index %d", i, idx)
		}
	}
	if err := p.pages.Audit(); err != nil {
		return fmt.Errorf("pdede: page table: %w", err)
	}
	if err := p.regions.Audit(); err != nil {
		return fmt.Errorf("pdede: region table: %w", err)
	}
	return nil
}

// StateDigest implements btb.StateDigester: a hash over every live BTBM
// entry and its reconstructed target, so divergence reports can fingerprint
// the design state at the failing step.
func (p *PDede) StateDigest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for i := range p.entries {
		if !p.tags.Live(i) {
			continue
		}
		e := &p.entries[i]
		put(uint64(i))
		put(uint64(p.tags.Tag(i)))
		put(uint64(e.offset))
		if e.delta() {
			put(1)
		} else {
			put(0)
			if pv, ok := p.pages.Get(int(e.pagePtr)); ok {
				put(pv)
			}
			if rv, ok := p.regions.Get(int(e.regionPtr)); ok {
				put(rv)
			}
		}
	}
	return h.Sum64()
}

var _ btb.Auditable = (*PDede)(nil)
var _ btb.StateDigester = (*PDede)(nil)

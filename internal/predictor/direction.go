// Package predictor implements the branch direction predictors, the return
// address stack, and the ITTAGE indirect target predictor used around the
// BTB in the core model.
package predictor

import (
	"fmt"

	"repro/internal/addr"
)

// --- Bimodal -------------------------------------------------------------

// Bimodal is a per-PC 2-bit saturating counter table.
type Bimodal struct {
	ctr  []uint8
	mask uint64
}

// NewBimodal builds a bimodal predictor with entries counters (power of two).
func NewBimodal(entries int) (*Bimodal, error) {
	if entries <= 0 || entries&(entries-1) != 0 {
		return nil, fmt.Errorf("predictor: bimodal entries %d not a power of two", entries)
	}
	b := &Bimodal{ctr: make([]uint8, entries), mask: uint64(entries - 1)}
	for i := range b.ctr {
		b.ctr[i] = 2 // weakly taken: most branches are taken
	}
	return b, nil
}

// Predict is on the per-branch hot path and must stay a leaf call.
func (b *Bimodal) Predict(pc addr.VA) bool { return b.predictMixed(addr.Mix64(uint64(pc) >> 1)) }

// Update trains on every resolved branch.
func (b *Bimodal) Update(pc addr.VA, taken bool) {
	b.updateMixed(addr.Mix64(uint64(pc)>>1), taken)
}

// predictMixed/updateMixed take the already-mixed PC hash, letting callers
// that mix the PC anyway (TAGE shares one Mix64 across its base and tagged
// probes) skip the repeat hash.
func (b *Bimodal) predictMixed(h uint64) bool { return b.ctr[h&b.mask] >= 2 }

func (b *Bimodal) updateMixed(h uint64, taken bool) {
	i := h & b.mask
	if taken {
		if b.ctr[i] < 3 {
			b.ctr[i]++
		}
	} else if b.ctr[i] > 0 {
		b.ctr[i]--
	}
}

func (b *Bimodal) StorageBits() uint64 { return uint64(len(b.ctr)) * 2 }

func (b *Bimodal) Reset() {
	for i := range b.ctr {
		b.ctr[i] = 2
	}
}

// Package predictor implements the branch direction predictors, the return
// address stack, and the ITTAGE indirect target predictor used around the
// BTB in the core model.
package predictor

import (
	"fmt"

	"repro/internal/addr"
)

// Direction predicts taken/not-taken for conditional branches. The core
// calls Predict then Update for every conditional in program order;
// unconditional branches do not flow through direction prediction.
type Direction interface {
	Name() string
	Predict(pc addr.VA) bool
	Update(pc addr.VA, taken bool)
	StorageBits() uint64
	Reset()
}

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

func (b *Bimodal) Name() string { return "bimodal" }

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

// Clone returns a deep copy sharing no mutable state with the receiver.
func (b *Bimodal) Clone() *Bimodal {
	d := *b
	d.ctr = append([]uint8(nil), b.ctr...)
	return &d
}

func (b *Bimodal) StorageBits() uint64 { return uint64(len(b.ctr)) * 2 }

func (b *Bimodal) Reset() {
	for i := range b.ctr {
		b.ctr[i] = 2
	}
}

// --- GShare --------------------------------------------------------------

// GShare XORs global history into the index of a 2-bit counter table.
type GShare struct {
	ctr      []uint8
	mask     uint64
	histBits uint
	ghist    uint64
}

// NewGShare builds a gshare predictor with entries counters (power of two)
// and histBits bits of global history.
func NewGShare(entries int, histBits uint) (*GShare, error) {
	if entries <= 0 || entries&(entries-1) != 0 {
		return nil, fmt.Errorf("predictor: gshare entries %d not a power of two", entries)
	}
	if histBits == 0 || histBits > 32 {
		return nil, fmt.Errorf("predictor: gshare history %d out of range", histBits)
	}
	g := &GShare{ctr: make([]uint8, entries), mask: uint64(entries - 1), histBits: histBits}
	for i := range g.ctr {
		g.ctr[i] = 2
	}
	return g, nil
}

func (g *GShare) Name() string { return "gshare" }

// idx folds the global history into the mixed PC index.
func (g *GShare) idx(pc addr.VA) int {
	h := g.ghist & ((1 << g.histBits) - 1)
	return int((addr.Mix64(uint64(pc)>>1) ^ h) & g.mask)
}

// Predict is on the per-branch hot path and must stay a leaf call.
func (g *GShare) Predict(pc addr.VA) bool { return g.ctr[g.idx(pc)] >= 2 }

func (g *GShare) Update(pc addr.VA, taken bool) {
	i := g.idx(pc)
	if taken {
		if g.ctr[i] < 3 {
			g.ctr[i]++
		}
	} else if g.ctr[i] > 0 {
		g.ctr[i]--
	}
	g.ghist <<= 1
	if taken {
		g.ghist |= 1
	}
}

func (g *GShare) StorageBits() uint64 { return uint64(len(g.ctr))*2 + uint64(g.histBits) }

func (g *GShare) Reset() {
	for i := range g.ctr {
		g.ctr[i] = 2
	}
	g.ghist = 0
}

// Package multilevel implements the 2-level BTB organisation of §5.9: a
// small, single-cycle L0 backed by a large, slower L1 (which may be a
// conventional BTB or a PDede). Hits in L0 cost nothing extra; L1 hits pay
// one extra cycle (plus whatever the L1 design itself adds) and promote the
// entry into L0.
package multilevel

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/btb"
	"repro/internal/isa"
)

// TwoLevel composes two target predictors into an L0/L1 hierarchy. It
// implements btb.TargetPredictor.
type TwoLevel struct {
	name string
	l0   btb.TargetPredictor
	l1   btb.TargetPredictor
}

// New builds the hierarchy. l0 should be a small single-cycle structure;
// l1 the large second level.
func New(l0, l1 btb.TargetPredictor) (*TwoLevel, error) {
	if l0 == nil || l1 == nil {
		return nil, fmt.Errorf("multilevel: both levels required")
	}
	return &TwoLevel{
		name: fmt.Sprintf("2L(%s+%s)", l0.Name(), l1.Name()),
		l0:   l0,
		l1:   l1,
	}, nil
}

// Name implements btb.TargetPredictor.
func (t *TwoLevel) Name() string { return t.name }

// Lookup implements btb.TargetPredictor: L0 first; on an L0 miss the L1
// result (one cycle later) is used and promoted into L0.
func (t *TwoLevel) Lookup(pc addr.VA) btb.Lookup {
	if l0 := t.l0.Lookup(pc); l0.Hit {
		return l0
	}
	l1 := t.l1.Lookup(pc)
	if !l1.Hit {
		return l1
	}
	l1.ExtraLatency++
	// Promote: fill L0 with the L1 prediction (modelled as a taken direct
	// branch — L0 stores raw PC→target pairs regardless of kind).
	// The L0 is a microarchitectural cache of the architectural L1
	// (§5.5), so this lookup-time fill is the filter hierarchy's defining,
	// deliberate behaviour. L0 promotion on an L1 hit is the modelled
	// design, so the Lookup purity witness (purity_test.go) exempts the
	// hierarchy by name.
	t.l0.Update(isa.Branch{
		PC:       pc,
		Target:   l1.Target,
		BlockLen: 1,
		Kind:     isa.UncondDirect,
		Taken:    true,
	}, btb.Lookup{})
	return l1
}

// Update implements btb.TargetPredictor: both levels train.
func (t *TwoLevel) Update(b isa.Branch, prior btb.Lookup) {
	t.l0.Update(b, prior)
	t.l1.Update(b, prior)
}

// StorageBits implements btb.TargetPredictor.
func (t *TwoLevel) StorageBits() uint64 {
	return t.l0.StorageBits() + t.l1.StorageBits()
}

// Audit implements btb.Auditable by delegating to whichever levels are
// themselves auditable (the hierarchy adds no cross-level bookkeeping: L0
// promotion reuses the ordinary Update path).
func (t *TwoLevel) Audit() error {
	for _, lvl := range []btb.TargetPredictor{t.l0, t.l1} {
		if a, ok := lvl.(btb.Auditable); ok {
			if err := a.Audit(); err != nil {
				return fmt.Errorf("multilevel: %s: %w", lvl.Name(), err)
			}
		}
	}
	return nil
}

// Reset implements btb.TargetPredictor.
func (t *TwoLevel) Reset() {
	t.l0.Reset()
	t.l1.Reset()
}

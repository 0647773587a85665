package core

import (
	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/predictor"
)

// The per-record step is split along the seam of the decoupled frontend
// (DESIGN.md §5.2). Without wrong-path pollution, the instruction caches,
// the direction predictor and the RAS see only trace-order addresses and
// outcomes, never a BTB prediction. frontend.step drives them and condenses
// what they said into a warmRec; sim.backStep consumes that record with the
// design-private structures (BTB, ITTAGE) and the cycle accounting. The
// shared frontend pass, the warm replay, Session.Apply and the two-stage
// RunContext all compose these same two halves.

// warmRec is one record's frontend outcome: everything the back half needs
// from the caches, the direction predictor and the RAS.
type warmRec struct {
	rasTarget addr.VA // RAS pop result for returns (valid when warmRASHit)
	misses    uint16  // icache misses fetching the block
	flags     uint8   // warmL2Miss | warmDirPred | warmRASHit
}

const (
	warmL2Miss  = 1 << iota // block's first fill came from beyond the L2
	warmDirPred             // direction predictor said taken
	warmRASHit              // RAS was non-empty for this return
)

// frontend is the design-independent half of the core: instruction fetch
// through the ICache and L2, the direction predictor and the RAS.
type frontend struct {
	ic  *cache.Cache
	l2  *cache.Cache
	dir *predictor.TAGE
	ras *predictor.RAS // nil when returns are predicted by the BTB
}

// newFrontend builds cold frontend structures under p; withRAS false leaves
// the RAS out, for a core that routes returns through the BTB.
func newFrontend(p *Params, withRAS bool) (frontend, error) {
	dir, err := predictor.NewTAGE(predictor.DefaultTAGEConfig())
	if err != nil {
		return frontend{}, err
	}
	ic, err := cache.New(p.ICacheBytes, p.ICacheWays, p.ICacheLineBytes)
	if err != nil {
		return frontend{}, err
	}
	l2, err := cache.New(p.L2Bytes, p.L2Ways, p.ICacheLineBytes)
	if err != nil {
		return frontend{}, err
	}
	f := frontend{ic: ic, l2: l2, dir: dir}
	if withRAS {
		f.ras = predictor.NewRAS(p.RASEntries)
	}
	return f, nil
}

// step runs one record through the frontend: the caches see the block
// range (the L2 only when the ICache misses), the direction predictor sees
// Predict then Update for every conditional, and the RAS pops for returns
// and pushes for calls.
func (f *frontend) step(b isa.Branch) warmRec {
	var rec warmRec

	span := uint64(b.BlockLen-1) * isa.InstrBytes
	blockStart := b.PC.Add(-span)
	if uint64(b.PC) < span {
		// An untrusted record can claim a block that starts below address
		// 0; unclamped, its start wraps to the top of the address space.
		blockStart = 0
	}
	misses := f.ic.AccessRange(blockStart, b.PC)
	rec.misses = uint16(misses)
	if misses > 0 && f.l2.AccessRange(blockStart, b.PC) > 0 {
		rec.flags |= warmL2Miss
	}

	if f.ras != nil && b.Kind.IsReturn() {
		if t, ok := f.ras.Pop(); ok {
			rec.rasTarget = t
			rec.flags |= warmRASHit
		}
	}
	if b.Kind.IsConditional() {
		if f.dir.Predict(b.PC) {
			rec.flags |= warmDirPred
		}
		f.dir.Update(b.PC, b.Taken)
	}
	if f.ras != nil && b.Kind.IsCall() {
		f.ras.Push(b.Fallthrough())
	}
	return rec
}

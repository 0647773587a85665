package core

import (
	"repro/internal/btb"
	"repro/internal/isa"
)

// bpu is the design-private half of the branch-prediction unit shared by
// both core models (the analytic runahead model in sim.go and the
// event-timestamped pipeline in pipeline.go): the BTB and the optional
// ITTAGE. The direction predictor and the RAS belong to the frontend half
// (frontend.go), whose outcome arrives as a warmRec.
//
// Predictions and updates happen in trace order at prediction time. Real
// hardware trains the BTB speculatively as soon as targets resolve (§2:
// "BTB updates happen speculatively once the target address is known");
// collapsing predict/update into one step models that with instant repair.
type bpu struct {
	cfg *Config
}

// prediction is the outcome of one branch's pass through the BPU.
type prediction struct {
	look    btb.Lookup
	usesBTB bool
	dirPred bool

	// penalty/kind classify the resteer (0 = none; 1 = BTB, 2 = direction,
	// 3 = return), mirroring the §5.1 accounting.
	penalty int
	kind    int
}

// resolve completes one branch's pass through the BPU given its frontend
// outcome rec: probe the right target structure (the RAS result arrives in
// rec), take the direction rec recorded, classify the resteer, then train
// the BTB and ITTAGE.
func (u *bpu) resolve(b isa.Branch, rec warmRec) prediction {
	p := &u.cfg.Params
	out := prediction{usesBTB: true, dirPred: true}

	switch {
	case b.Kind.IsReturn() && !u.cfg.StoreReturnsInBTB:
		out.usesBTB = false
		if rec.flags&warmRASHit != 0 {
			out.look = btb.Lookup{Hit: true, Target: rec.rasTarget}
		}
	case b.Kind.IsIndirect() && u.cfg.ITTAGE != nil:
		out.usesBTB = false
		if t, ok := u.cfg.ITTAGE.Predict(b.PC); ok {
			out.look = btb.Lookup{Hit: true, Target: t}
		}
	default:
		out.look = u.cfg.BTB.Lookup(b.PC)
	}

	if b.Kind.IsConditional() {
		out.dirPred = rec.flags&warmDirPred != 0
		if u.cfg.PerfectDirection {
			out.dirPred = b.Taken
		}
	}

	targetCorrect := out.look.Hit && out.look.Target == b.Target
	switch {
	case b.Kind.IsConditional() && out.dirPred != b.Taken:
		out.penalty, out.kind = p.ExecResteer, 2
	case b.Taken && !targetCorrect:
		switch {
		case b.Kind.IsReturn():
			out.penalty, out.kind = p.ExecResteer, 3
		case b.Kind.IsIndirect():
			out.penalty, out.kind = p.ExecResteer, 1
		default:
			out.penalty, out.kind = p.DecodeResteer, 1
		}
	}

	// Training.
	if out.usesBTB && (!b.Kind.IsReturn() || u.cfg.StoreReturnsInBTB) {
		u.cfg.BTB.Update(b, out.look)
	}
	if b.Kind.IsIndirect() && u.cfg.ITTAGE != nil && b.Taken {
		u.cfg.ITTAGE.Update(b.PC, b.Target)
	}
	if u.cfg.ITTAGE != nil {
		u.cfg.ITTAGE.Observe(b.Taken)
	}
	return out
}

// note records the per-branch statistics common to both models.
func (u *bpu) note(res *Result, b isa.Branch, pr prediction) {
	res.Instructions += uint64(b.BlockLen)
	res.DynBranches++
	targetCorrect := pr.look.Hit && pr.look.Target == b.Target
	if b.Taken {
		res.TakenDyn++
		res.TakenByClass[b.Kind.Class()]++
		if pr.usesBTB {
			res.LookupsTaken++
			if !targetCorrect {
				res.BTBMissByClass[b.Kind.Class()]++
			}
			if pr.look.Hit && pr.look.ExtraLatency > 0 {
				res.ExtraBTBCycles += uint64(pr.look.ExtraLatency)
			}
			if pr.look.Hit && pr.look.ExtraLatency == 0 {
				res.DeltaServed++
			}
		}
	}
	switch pr.kind {
	case 1:
		res.BTBResteers++
		res.WrongPathFlush++
		res.BTBResteerCycles += float64(pr.penalty)
	case 2:
		res.DirResteers++
		res.WrongPathFlush++
		res.DirResteerCycles += float64(pr.penalty)
	case 3:
		res.RASMispredicts++
		res.RetResteers++
		res.WrongPathFlush++
		res.RetResteerCycles += float64(pr.penalty)
	}
	if b.Kind.IsConditional() && pr.dirPred != b.Taken {
		res.DirMispredicts++
	}
}

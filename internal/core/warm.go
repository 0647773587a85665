package core

import (
	"context"
	"errors"
	"io"

	"repro/internal/addr"
	"repro/internal/btb"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/predictor"
	"repro/internal/trace"
)

// Warm-state cloning: the suite runner evaluates many BTB designs against
// one application trace, and every cold run repeats the same warmup work.
// During warmup (WrongPathLines == 0, the default core), the instruction
// caches, the direction predictor and the RAS evolve identically for every
// design — they see only trace-order addresses and outcomes, never a BTB
// prediction. Only the BTB itself, the optional ITTAGE, and the frontend
// lead/refill recurrence are design-private.
//
// WarmupContext therefore runs the shared structures over the warmup prefix
// exactly once per app, recording the tiny per-record outcomes a design
// needs (icache miss count, L2 miss, direction prediction, RAS pop). Each
// design then clones the warmed structures (Clone on cache.Cache,
// predictor.TAGE, predictor.RAS) and replays the prefix through a fast path
// that touches only its private state. RunWarmContext is proven
// bit-identical to RunContext by TestWarmCloneOracle, which compares whole
// Result structs for every registered design; the periodic btb.Auditable
// deep checks run at the same record cadence on both paths.

// warmRec is the per-record outcome of the shared warmup pass: everything a
// design-private replay needs that it cannot (or must not) recompute.
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

// WarmState is the warmed, design-independent frontend state of one
// (app, warmup-window) pair: caches, direction predictor, RAS, and the
// per-record replay log. It is immutable once WarmupContext returns —
// design runs only ever Clone the structures — so one WarmState may be
// shared by any number of concurrent NewWarmSession/RunWarmContext calls.
type WarmState struct {
	base    Config // the canonical config the warmup ran under (BTB nil)
	name    string
	seen    uint64 // instructions covered by the warm prefix
	records uint64 // records covered by the warm prefix (== len(recs))

	ic  *cache.Cache
	l2  *cache.Cache
	dir *predictor.TAGE
	ras *predictor.RAS

	recs []warmRec
}

// Records returns how many trace records the warm prefix covers.
func (w *WarmState) Records() uint64 { return w.records }

// Instructions returns how many instructions the warm prefix covers.
func (w *WarmState) Instructions() uint64 { return w.seen }

// WarmupCompatible reports whether a design config cfg can be served from a
// warm state built with base (nil = compatible). Incompatible designs — a
// custom direction predictor, different core parameters, the pipeline
// model, or wrong-path pollution (which feeds BTB predictions back into the
// shared caches) — must fall back to a cold RunContext.
func WarmupCompatible(base, cfg Config) error {
	switch {
	case cfg.UsePipeline:
		return errors.New("core: warm clone unavailable: pipeline model replays whole traces")
	case cfg.Direction != nil:
		return errors.New("core: warm clone unavailable: custom direction predictor")
	case cfg.Params != base.Params:
		return errors.New("core: warm clone unavailable: core parameters differ from the warmed core")
	case cfg.Params.WrongPathLines != 0:
		return errors.New("core: warm clone unavailable: wrong-path pollution couples the caches to the BTB")
	case cfg.WarmupInstrs != base.WarmupInstrs:
		return errors.New("core: warm clone unavailable: warmup window differs")
	}
	return nil
}

// Compatible reports whether cfg can run from this warm state.
func (w *WarmState) Compatible(cfg Config) error { return WarmupCompatible(w.base, cfg) }

// WarmupContext runs the shared warmup pass: it drives the
// design-independent frontend structures over cfg's warmup prefix of src
// and records the per-record replay log. cfg is the canonical base
// configuration (cfg.BTB is ignored and may be nil); designs later check
// themselves against it with Compatible.
func WarmupContext(ctx context.Context, cfg Config, src trace.Source) (*WarmState, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if err := WarmupCompatible(cfg, cfg); err != nil {
		return nil, err
	}
	if cfg.WarmupInstrs == 0 {
		return nil, errors.New("core: warm clone unavailable: no warmup window")
	}
	dir, err := predictor.NewTAGE(predictor.DefaultTAGEConfig())
	if err != nil {
		return nil, err
	}
	ic, err := cache.New(cfg.Params.ICacheBytes, cfg.Params.ICacheWays, cfg.Params.ICacheLineBytes)
	if err != nil {
		return nil, err
	}
	l2, err := cache.New(cfg.Params.L2Bytes, cfg.Params.L2Ways, cfg.Params.ICacheLineBytes)
	if err != nil {
		return nil, err
	}
	w := &WarmState{
		base: cfg,
		name: src.Name(),
		ic:   ic,
		l2:   l2,
		dir:  dir,
		ras:  predictor.NewRAS(cfg.Params.RASEntries),
		recs: make([]warmRec, 0, cfg.WarmupInstrs/4),
	}

	r := src.Open()
	batch := make([]isa.Branch, recordBatch)
	for w.seen < cfg.WarmupInstrs {
		if err := checkCtx(ctx, w.records); err != nil {
			return nil, err
		}
		n, rerr := trace.ReadBatch(r, batch)
		for i := 0; i < n && w.seen < cfg.WarmupInstrs; i++ {
			w.warmStep(batch[i])
		}
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				break
			}
			return nil, rerr
		}
		if n == 0 {
			break
		}
	}
	return w, nil
}

// warmStep processes one warm-prefix record through the shared structures,
// mirroring the cold path's fetch and predictor sequencing exactly: the
// caches see the block range, the direction predictor sees Predict then
// Update for every conditional, and the RAS sees the canonical
// (StoreReturnsInBTB == false) pop/push traffic.
func (w *WarmState) warmStep(b isa.Branch) {
	var rec warmRec

	blockStart := b.PC.Add(-uint64(b.BlockLen-1) * isa.InstrBytes)
	misses := w.ic.AccessRange(blockStart, b.PC)
	rec.misses = uint16(misses)
	if misses > 0 && w.l2.AccessRange(blockStart, b.PC) > 0 {
		rec.flags |= warmL2Miss
	}

	if b.Kind.IsReturn() {
		if t, ok := w.ras.Pop(); ok {
			rec.rasTarget = t
			rec.flags |= warmRASHit
		}
	}
	if b.Kind.IsConditional() {
		if w.dir.Predict(b.PC) {
			rec.flags |= warmDirPred
		}
		w.dir.Update(b.PC, b.Taken)
	}
	if b.Kind.IsCall() {
		w.ras.Push(b.Fallthrough())
	}

	w.seen += uint64(b.BlockLen)
	w.records++
	w.recs = append(w.recs, rec)
}

// NewWarmSession builds a Session whose shared frontend state (caches,
// direction predictor, RAS) is deep-cloned from w instead of
// cold-constructed. The caller must then feed the warm prefix through the
// replay path (RunWarmContext does both) before applying measured records.
func NewWarmSession(cfg Config, w *WarmState, name string) (*Session, error) {
	if err := w.Compatible(cfg); err != nil {
		return nil, err
	}
	se, err := NewSession(cfg, name)
	if err != nil {
		return nil, err
	}
	s := se.sim
	s.ic = w.ic.Clone()
	s.l2 = w.l2.Clone()
	s.bpu.dir = w.dir.Clone()
	s.bpu.ras = w.ras.Clone()
	return se, nil
}

// replayWarm feeds the warm prefix through the design-private fast path:
// reads the same records the shared pass consumed from the session's own
// reader (fault-injection and stream-position semantics stay per-reader),
// probes and trains only the BTB/ITTAGE, and reruns the lead/refill cycle
// recurrence with the recorded fetch outcomes. The periodic audit cadence
// matches Session.Apply record for record. eof reports a trace that ended
// inside the warm prefix (the caller then skips the measured phase, exactly
// as a cold run of the same truncated trace would).
func (se *Session) replayWarm(ctx context.Context, w *WarmState, r trace.Reader) (eof bool, err error) {
	s := se.sim
	every := s.cfg.AuditEvery
	batch := make([]isa.Branch, recordBatch)
	for idx := uint64(0); idx < w.records; {
		if err := checkCtx(ctx, se.records); err != nil {
			return false, err
		}
		want := w.records - idx
		if want > recordBatch {
			want = recordBatch
		}
		n, rerr := trace.ReadBatch(r, batch[:want])
		for i := 0; i < n; i++ {
			s.replayStep(batch[i], w.recs[idx])
			idx++
			se.records++
			if se.auditable != nil && se.records%every == 0 {
				if err := auditBTB(se.auditable, se.records-1); err != nil {
					return false, err
				}
			}
		}
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				return true, nil
			}
			return false, rerr
		}
		if n == 0 {
			return true, nil
		}
	}
	return false, nil
}

// replayStep is the design-private half of one warm-prefix record: the
// fetch outcome comes from the shared pass's log, the prediction flows
// through replayPredict, and the cycle accounting is the shared account —
// bit-identical to the cold step for the same record.
func (s *sim) replayStep(b isa.Branch, rec warmRec) {
	s.seen += uint64(b.BlockLen)
	fillLat := float64(s.cfg.Params.ICacheMissLat)
	if rec.flags&warmL2Miss != 0 {
		fillLat = float64(s.cfg.Params.L2MissLat)
	}
	pr := s.bpu.replayPredict(b, rec)
	s.account(b, pr, int(rec.misses), fillLat, false)
}

// replayPredict is predict for the warm-replay path: the shared warmup pass
// already drove the direction predictor and the RAS (their outcomes arrive
// in rec, and the cloned structures already hold the post-warmup state), so
// only the design-private BTB and ITTAGE are probed and trained here. The
// resteer classification mirrors predict branch for branch.
func (u *bpu) replayPredict(b isa.Branch, rec warmRec) prediction {
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

// RunWarmContext is RunContext starting from a warm state: the session's
// shared frontend structures are cloned from w, the warm prefix is replayed
// through the design-private fast path, and the measured window then runs
// through the ordinary Session.Apply loop. The result is bit-identical to
// RunContext with the same cfg and src (see WarmupCompatible for when a
// design must fall back).
func RunWarmContext(ctx context.Context, cfg Config, src trace.Source, w *WarmState) (*Result, error) {
	se, err := NewWarmSession(cfg, w, src.Name())
	if err != nil {
		return nil, err
	}
	r := src.Open()
	eof, err := se.replayWarm(ctx, w, r)
	if err != nil {
		return nil, err
	}
	if !eof {
		batch := make([]isa.Branch, recordBatch)
		for {
			if err := checkCtx(ctx, se.Records()); err != nil {
				return nil, err
			}
			n, rerr := trace.ReadBatch(r, batch)
			_, done, err := se.Apply(batch[:n])
			if err != nil {
				return nil, err
			}
			if done {
				break
			}
			if rerr != nil {
				if errors.Is(rerr, io.EOF) {
					break
				}
				return nil, rerr
			}
			if n == 0 {
				break
			}
		}
	}
	if err := se.Audit(); err != nil {
		return nil, err
	}
	return se.Result(), nil
}

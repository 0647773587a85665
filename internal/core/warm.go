package core

import (
	"context"
	"errors"
	"io"

	"repro/internal/isa"
	"repro/internal/predictor"
	"repro/internal/trace"
)

// Warm-state cloning: the suite runner evaluates many BTB designs against
// one application trace, and every cold run repeats the same warmup work.
// During warmup (WrongPathLines == 0, the default core), the frontend half
// of the core (frontend.go) — the instruction caches, the direction
// predictor and the RAS — evolves identically for every design: it sees
// only trace-order addresses and outcomes, never a BTB prediction. Only the
// BTB itself, the optional ITTAGE, and the frontend lead/refill recurrence
// are design-private.
//
// WarmupContext therefore runs the frontend half over the warmup prefix
// exactly once per app, logging each record's warmRec. Each design then
// clones the warmed structures (Clone on cache.Cache, predictor.TAGE,
// predictor.RAS) and replays the prefix through the back half alone.
// RunWarmContext is proven bit-identical to RunContext by
// TestWarmCloneOracle, which compares whole Result structs for every
// registered design; the periodic btb.Auditable deep checks run at the same
// record cadence on both paths.

// WarmState is the warmed, design-independent frontend state of one
// (app, warmup-window) pair: caches, direction predictor, RAS, and the
// per-record replay log. It is immutable once WarmupContext returns —
// design runs only ever Clone the structures — so one WarmState may be
// shared by any number of concurrent NewWarmSession/RunWarmContext calls.
type WarmState struct {
	base Config // the canonical config the warmup ran under (BTB nil)
	name string
	seen uint64 // instructions covered by the warm prefix

	fe  frontend        // the frontend after the prefix (always with a RAS)
	dir *predictor.TAGE // fe.dir, typed for Clone

	recs []warmRec // one per record of the prefix
}

// Records returns how many trace records the warm prefix covers.
func (w *WarmState) Records() uint64 { return uint64(len(w.recs)) }

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

// WarmupContext runs the shared warmup pass: it drives the frontend half
// over cfg's warmup prefix of src and records the per-record replay log.
// cfg is the canonical base configuration (cfg.BTB is ignored and may be
// nil); designs later check themselves against it with Compatible. The
// pass always keeps a RAS, so designs that use one and designs that route
// returns through the BTB can share it.
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
	fe, err := newFrontend(&cfg.Params, dir, true)
	if err != nil {
		return nil, err
	}
	w := &WarmState{
		base: cfg,
		name: src.Name(),
		fe:   fe,
		dir:  dir,
		recs: make([]warmRec, 0, cfg.WarmupInstrs/4),
	}

	r := src.Open()
	batch := make([]isa.Branch, recordBatch)
	for w.seen < cfg.WarmupInstrs {
		if err := checkCtx(ctx, w.Records()); err != nil {
			return nil, err
		}
		n, rerr := trace.ReadBatch(r, batch)
		for i := 0; i < n && w.seen < cfg.WarmupInstrs; i++ {
			w.recs = append(w.recs, w.fe.step(batch[i]))
			w.seen += uint64(batch[i].BlockLen)
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

// NewWarmSession builds a Session whose frontend (caches, direction
// predictor, RAS) is deep-cloned from w instead of cold-constructed. The
// caller must then feed the warm prefix through the replay path
// (RunWarmContext does both) before applying measured records.
func NewWarmSession(cfg Config, w *WarmState, name string) (*Session, error) {
	if err := w.Compatible(cfg); err != nil {
		return nil, err
	}
	se, err := NewSession(cfg, name)
	if err != nil {
		return nil, err
	}
	fe := &se.sim.fe
	fe.ic = w.fe.ic.Clone()
	fe.l2 = w.fe.l2.Clone()
	fe.dir = w.dir.Clone()
	if fe.ras != nil {
		fe.ras = w.fe.ras.Clone()
	}
	return se, nil
}

// replayWarm feeds the warm prefix through the back half alone: it reads
// the same records the shared pass consumed from the session's own reader
// (fault-injection and stream-position semantics stay per-reader) and
// pairs each with its logged frontend outcome. The periodic audit cadence
// matches Session.Apply record for record. eof reports a trace that ended
// inside the warm prefix (the caller then skips the measured phase, exactly
// as a cold run of the same truncated trace would).
func (se *Session) replayWarm(ctx context.Context, w *WarmState, r trace.Reader) (eof bool, err error) {
	batch := make([]isa.Branch, recordBatch)
	for idx := 0; idx < len(w.recs); {
		if err := checkCtx(ctx, se.records); err != nil {
			return false, err
		}
		n, rerr := trace.ReadBatch(r, batch[:min(len(w.recs)-idx, recordBatch)])
		// Every prefix record is a warmup record, so the measure window
		// cannot fill here: the replay ends early only at the end of the
		// trace or on an error.
		if end, err := se.applyBatch(batch[:n], w.recs[idx:], rerr); end {
			return err == nil, err
		}
		idx += n
	}
	return false, nil
}

// RunWarmContext is RunContext starting from a warm state: the session's
// frontend structures are cloned from w, the warm prefix is replayed
// through the back half alone, and the measured window then runs through
// the serial Session.Apply loop (drain, not drainTwoStage: pipelining it
// slowed the suite runner's warm cells, DESIGN.md §5.2). The result is
// bit-identical to RunContext with the same cfg and src (see
// WarmupCompatible for when a design must fall back).
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
		if err := se.drain(ctx, r); err != nil {
			return nil, err
		}
	}
	if err := se.Audit(); err != nil {
		return nil, err
	}
	return se.Result(), nil
}

package core

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/isa"
	"repro/internal/trace"
)

// The shared frontend pass: the suite runner evaluates many BTB designs
// against one application trace. Without wrong-path pollution
// (WrongPathLines == 0, the default core), the frontend half of the core
// (frontend.go) — the instruction caches, the direction predictor and the
// RAS — evolves identically for every design: it sees only trace-order
// addresses and outcomes, never a BTB prediction, and of the core
// parameters it reads only the cache geometry and the RAS depth. Only the
// BTB itself, the optional ITTAGE, and the cycle accounting (either core
// model, under any FTQ size, width or penalty) are design-private.
//
// WarmupContext therefore runs the frontend half exactly once per app,
// over every record a cold run of the base config applies, and logs each
// record's warmRec. RunWarmContext replays that log through the back half
// alone, so a design's run builds no ICache, L2, TAGE or RAS.
// RunWarmContext is proven bit-identical to RunContext by
// TestWarmCloneOracle, which compares whole Result structs for every
// registered design; the periodic btb.Auditable deep checks run at the same
// record cadence on both paths.

// WarmState is the design-independent frontend half of one (app, window)
// pair: the frontend outcome of every record a cold run of the base config
// applies (16 bytes per record). It is immutable once WarmupContext
// returns, so one WarmState may be shared by any number of concurrent
// RunWarmContext calls.
type WarmState struct {
	base Config    // the canonical config the pass ran under (BTB nil)
	recs []warmRec // recs[i] is record i's frontend outcome
}

// Records returns how many trace records the log covers.
func (w *WarmState) Records() uint64 { return uint64(len(w.recs)) }

// WarmupCompatible reports whether a design config cfg can be served from a
// warm state built with base (nil = compatible). The frontend half reads
// only the ICache and L2 geometry and the RAS depth, so any other core
// parameter and either core model may differ from base's. Incompatible
// designs — another frontend geometry, wrong-path pollution (which feeds
// BTB predictions back into the shared caches) or another window — must
// fall back to a cold RunContext.
func WarmupCompatible(base, cfg Config) error {
	b, c := &base.Params, &cfg.Params
	switch {
	case c.ICacheBytes != b.ICacheBytes || c.ICacheWays != b.ICacheWays ||
		c.ICacheLineBytes != b.ICacheLineBytes || c.L2Bytes != b.L2Bytes ||
		c.L2Ways != b.L2Ways || c.RASEntries != b.RASEntries:
		return errors.New("core: warm state unavailable: frontend geometry differs from the warmed core")
	case c.WrongPathLines != 0:
		return errors.New("core: warm state unavailable: wrong-path pollution couples the caches to the BTB")
	case cfg.WarmupInstrs != base.WarmupInstrs:
		return errors.New("core: warm state unavailable: warmup window differs")
	case cfg.MeasureInstrs != base.MeasureInstrs:
		return errors.New("core: warm state unavailable: measure window differs")
	}
	return nil
}

// Compatible reports whether cfg can run from this warm state.
func (w *WarmState) Compatible(cfg Config) error { return WarmupCompatible(w.base, cfg) }

// WarmupContext runs the shared frontend pass: it drives the frontend half
// over src up to the record a cold run of cfg ends on — the one that fills
// cfg.MeasureInstrs, or the trace's last — and logs every record's
// outcome. cfg is the canonical base configuration (cfg.BTB is ignored and
// may be nil); designs later check themselves against it with Compatible.
// The pass always keeps a RAS, so designs that use one and designs that
// route returns through the BTB can share it. Only ctx bounds the pass over
// an endless reader.
func WarmupContext(ctx context.Context, cfg Config, src trace.Source) (*WarmState, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if err := WarmupCompatible(cfg, cfg); err != nil {
		return nil, err
	}
	if cfg.WarmupInstrs == 0 {
		return nil, errors.New("core: warm state unavailable: no warmup window")
	}
	fe, err := newFrontend(&cfg.Params, true)
	if err != nil {
		return nil, err
	}
	w := &WarmState{base: cfg}

	// seen and measured follow backStep's window accounting, so the log
	// ends on the record where Session.apply reports the window full.
	var seen, measured uint64
	r := src.Open()
	batch := make([]isa.Branch, recordBatch)
	for {
		if err := checkCtx(ctx, w.Records()); err != nil {
			return nil, err
		}
		n, rerr := trace.ReadBatch(r, batch)
		for _, b := range batch[:n] {
			w.recs = append(w.recs, fe.step(b))
			if seen >= cfg.WarmupInstrs {
				measured += uint64(b.BlockLen)
			}
			seen += uint64(b.BlockLen)
			if cfg.MeasureInstrs != 0 && measured >= cfg.MeasureInstrs {
				return w, nil
			}
		}
		switch {
		case errors.Is(rerr, io.EOF):
			return w, nil
		case rerr != nil:
			return nil, rerr
		case n == 0:
			return w, nil
		}
	}
}

// RunWarmContext is RunContext given the shared frontend pass w: records
// come from the cell's own reader of src (fault-injection and
// stream-position semantics stay per-reader), their frontend outcomes from
// w's log, and only the back half runs, serially (DESIGN.md §5.2). The
// result is bit-identical to RunContext with the same cfg and src (see
// WarmupCompatible for when a design must fall back). A reader that yields
// a record past the end of the log fails the run: the log cannot vouch
// for it.
func RunWarmContext(ctx context.Context, cfg Config, src trace.Source, w *WarmState) (*Result, error) {
	if err := w.Compatible(cfg); err != nil {
		return nil, err
	}
	se, err := newSession(cfg, src.Name())
	if err != nil {
		return nil, err
	}
	if err := se.replay(ctx, src.Open(), w.recs); err != nil {
		return nil, err
	}
	if err := se.Audit(); err != nil {
		return nil, err
	}
	return se.Result(), nil
}

// replay is drain for a session without frontend structures: recs[i] is
// the frontend outcome of r's i-th record. A record past the end of recs
// ends the replay with an error, after the records before it are applied.
func (se *Session) replay(ctx context.Context, r trace.Reader, recs []warmRec) error {
	batch := make([]isa.Branch, recordBatch)
	for {
		if err := checkCtx(ctx, se.records); err != nil {
			return err
		}
		n, rerr := trace.ReadBatch(r, batch)
		logged := recs[se.records:]
		if n > len(logged) {
			n, rerr = len(logged), fmt.Errorf("core: trace runs past the warm log's %d records", len(recs))
		}
		if end, err := se.applyBatch(batch[:n], logged, rerr); end {
			return err
		}
	}
}

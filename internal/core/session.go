package core

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/btb"
	"repro/internal/isa"
	"repro/internal/trace"
)

// Session is an incrementally-driven simulation: the same core model that
// RunContext replays from a trace Source, but fed record batches by the
// caller as they arrive. A long-running service applies each tenant's
// streamed batches through a Session and snapshots rolling metrics between
// them; RunContext itself is now a Session drained from a Source, so the
// two paths are the same code and produce bit-identical results.
//
// A Session is a sequential state machine, like the predictors it drives:
// callers serialize Apply/Audit/Snapshot themselves (the serve package
// holds its per-tenant lock around them).
type Session struct {
	// sim is held by value, so the back half's per-record state shares one
	// large allocation with records and never a cache line with the small
	// frontend objects (RAS, caches, TAGE) that drainTwoStage's producer
	// writes at the same time; such a line shared between the two cores
	// costs the two-stage drain most of its gain.
	sim       sim
	auditable btb.Auditable
	records   uint64
	name      string
}

// NewSession validates cfg and assembles the simulation state under the
// core model cfg.UsePipeline selects; name labels the Result's App field
// (RunContext passes the trace's name).
func NewSession(cfg Config, name string) (*Session, error) {
	se, err := newSession(cfg, name)
	if err != nil {
		return nil, err
	}
	se.sim.fe, err = newFrontend(&cfg.Params, cfg.Direction, !cfg.StoreReturnsInBTB)
	if err != nil {
		return nil, err
	}
	return se, nil
}

// newSession is NewSession without the frontend structures, for a session
// whose frontend outcomes all come from a WarmState's log.
func newSession(cfg Config, name string) (*Session, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.BTB == nil {
		return nil, fmt.Errorf("core: no BTB configured")
	}
	if cfg.BackendCPI <= 0 {
		return nil, fmt.Errorf("core: BackendCPI must be positive")
	}

	se := &Session{name: name}
	s := &se.sim
	s.cfg = cfg
	s.res = &Result{App: name, Design: cfg.BTB.Name()}
	if cfg.UsePipeline {
		s.pipe = &pipeTiming{ftqFree: make([]float64, cfg.Params.FetchQueueEntries)}
		s.res.Design += "+pipe"
	}
	s.bpu.cfg = &s.cfg
	s.effCPI = cfg.BackendCPI
	if min := 1 / float64(cfg.Params.RetireWidth); s.effCPI < min {
		s.effCPI = min
	}
	initProduceTab(&s.produceTab, cfg.Params.FetchWidth)

	if cfg.AuditEvery != 0 {
		se.auditable, _ = cfg.BTB.(btb.Auditable)
	}
	return se, nil
}

// Apply steps each record of batch through the core in order, honouring the
// configured audit cadence and the measure window. It returns the number of
// records consumed: n < len(batch) only when the measure window filled
// (done = true, remaining records untouched) or a periodic audit failed
// (err != nil; the structure is corrupt and the Session must be discarded).
func (se *Session) Apply(batch []isa.Branch) (n int, done bool, err error) {
	return se.apply(batch, nil)
}

// apply is Apply given the batch's frontend outcomes: recs[i] is batch[i]'s
// when the frontend half has already run, and recs nil runs each record's
// frontend half just before its back half, so wrong-path pollution reaches
// the ICache before the next record's fetch.
func (se *Session) apply(batch []isa.Branch, recs []warmRec) (n int, done bool, err error) {
	s := &se.sim
	every := s.cfg.AuditEvery
	for i := range batch {
		var rec warmRec
		if recs == nil {
			rec = s.fe.step(batch[i])
		} else {
			rec = recs[i]
		}
		s.backStep(&batch[i], rec)
		se.records++
		if se.auditable != nil && se.records%every == 0 {
			if err := auditBTB(se.auditable, se.records-1); err != nil {
				return i + 1, false, err
			}
		}
		if s.cfg.MeasureInstrs != 0 && s.measured >= s.cfg.MeasureInstrs {
			return i + 1, true, nil
		}
	}
	return len(batch), false, nil
}

// drain applies r's records until the trace ends, the measure window fills
// or ctx is done, one record at a time through both halves (Apply).
func (se *Session) drain(ctx context.Context, r trace.Reader) error {
	batch := make([]isa.Branch, recordBatch)
	for {
		if err := checkCtx(ctx, se.records); err != nil {
			return err
		}
		n, rerr := trace.ReadBatch(r, batch)
		if end, err := se.applyBatch(batch[:n], nil, rerr); end {
			return err
		}
	}
}

// applyBatch applies one batch a drain read, with the error the reader
// returned after it (recs as for apply), and reports whether the drain
// ends there and with what error. The batch's records are applied before
// a reader error is returned.
func (se *Session) applyBatch(batch []isa.Branch, recs []warmRec, rerr error) (end bool, err error) {
	_, done, err := se.apply(batch, recs)
	switch {
	case err != nil:
		return true, err
	case done:
		return true, nil
	case errors.Is(rerr, io.EOF):
		return true, nil
	case rerr != nil:
		return true, rerr
	}
	return len(batch) == 0, nil
}

// Audit runs the deep invariant check immediately (when the BTB supports it
// and AuditEvery enabled auditing), independent of the periodic cadence.
// RunContext calls it once at end of trace; a service calls it before
// checkpointing a tenant.
func (se *Session) Audit() error {
	if se.auditable == nil {
		return nil
	}
	return auditBTB(se.auditable, se.records)
}

// Records returns how many branch records the session has applied.
func (se *Session) Records() uint64 { return se.records }

// Result returns the live result accumulator. RunContext returns it
// directly; callers that keep applying batches must not hold mutable
// references across Apply calls — use Snapshot for a stable copy.
func (se *Session) Result() *Result { return se.sim.res }

// Snapshot returns a copy of the rolling result at this instant. Result
// holds no reference types, so a shallow copy is a deep copy.
func (se *Session) Snapshot() Result { return *se.sim.res }

package core

import (
	"context"
	"fmt"

	"repro/internal/btb"
	"repro/internal/isa"
	"repro/internal/predictor"
	"repro/internal/trace"
)

// recordBatch is the reusable decode-buffer size of the record loops: the
// trace is pulled in batches of this many records (trace.ReadBatch), which
// amortizes Reader interface dispatch, and the context is checked once per
// batch — the same cadence as the previous per-record loop's throttled check.
const recordBatch = 1 << 12

// checkCtx returns the context's error, wrapped with simulation progress,
// when the context is done.
func checkCtx(ctx context.Context, records uint64) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: simulation stopped after %d records: %w", records, err)
	}
	return nil
}

// serializeFrac is the share of a multi-cycle BTB lookup's extra latency
// that the taken-branch recurrence exposes as lost BPU throughput; the rest
// is overlapped by next-block prediction (§5.4's decoupled-frontend
// argument). Calibrated so that the always-2-cycle configuration costs
// about one point of IPC gain, as the paper measures.
const serializeFrac = 0.3

// Config assembles one simulation: a core, a branch-prediction unit, and
// the windowing methodology (warmup then measure, per §5.1).
type Config struct {
	Params Params

	// BackendCPI is the cycles-per-instruction the backend would sustain
	// with a perfect frontend (per-app data-dependency pressure; comes from
	// the workload config).
	BackendCPI float64

	// BTB is the target predictor under evaluation.
	BTB btb.TargetPredictor
	// PerfectDirection short-circuits direction prediction (§5.5).
	PerfectDirection bool
	// ITTAGE, when non-nil, serves indirect branches instead of the BTB
	// (§5.6: indirect targets are then not allocated in the BTB).
	ITTAGE *predictor.ITTAGE
	// StoreReturnsInBTB drops the RAS and routes returns through the BTB
	// (§5.7). The BTB must be configured to accept returns.
	StoreReturnsInBTB bool

	// UsePipeline selects the event-timestamped pipeline model
	// (pipeline.go) as the back half of every record, instead of the
	// analytic runahead model. Every entry point honours it, and the
	// Result's Design gains a "+pipe" suffix.
	UsePipeline bool

	// WarmupInstrs are executed with all structures live but no statistics
	// (the paper warms with 100M+ and measures 10M+; scale to taste).
	WarmupInstrs uint64
	// MeasureInstrs bounds the measured window (0 = to end of trace).
	MeasureInstrs uint64

	// AuditEvery, when non-zero, deep-checks the BTB's internal invariants
	// (btb.Auditable) every N records and aborts the run on the first
	// violation. 0 disables auditing; the only residual per-record cost is
	// one integer compare.
	AuditEvery uint64
}

// auditBTB runs the configured periodic deep-check, wrapping failures with
// enough context to locate the corrupting record window.
func auditBTB(a btb.Auditable, records uint64) error {
	if err := a.Audit(); err != nil {
		return fmt.Errorf("core: BTB audit failed at record %d: %w", records, err)
	}
	return nil
}

// Run replays one trace through the configured core.
func Run(cfg Config, src trace.Source) (*Result, error) {
	return RunContext(context.Background(), cfg, src)
}

// RunContext is Run with cancellation: the record loop observes ctx every
// few thousand records, so a deadline or cancel ends the simulation with
// the context's error instead of running the trace to completion. The
// simulation itself is a Session drained from src, so batch-streamed
// (serve) and whole-trace runs share one code path bit-for-bit, under
// either core model.
//
// Without wrong-path pollution the drain is two-staged (drainTwoStage): a
// second goroutine decodes the trace and runs the frontend half one batch
// ahead of the BTB half on the caller's goroutine. Wrong-path fetch writes
// BTB-dependent lines into the ICache, so WrongPathLines > 0 keeps the
// serial loop.
func RunContext(ctx context.Context, cfg Config, src trace.Source) (*Result, error) {
	se, err := NewSession(cfg, src.Name())
	if err != nil {
		return nil, err
	}
	r := src.Open()
	if cfg.Params.WrongPathLines == 0 {
		err = se.drainTwoStage(ctx, r)
	} else {
		err = se.drain(ctx, r)
	}
	if err != nil {
		return nil, err
	}
	if err := se.Audit(); err != nil {
		return nil, err
	}
	return se.Result(), nil
}

type sim struct {
	cfg    Config
	bpu    bpu
	fe     frontend
	res    *Result
	effCPI float64

	seen     uint64 // total instructions processed (incl. warmup)
	measured uint64 // instructions inside the measured window
	lead     float64
	// produceTab caches ceil(len/FetchWidth) for short blocks, replacing a
	// per-record integer division (see initProduceTab).
	produceTab [produceTabLen]float64
	// refill marks that the frontend pipeline was just flushed: the first
	// multi-cycle BTB lookup afterwards exposes its extra latency (a
	// pipelined 2-cycle BTB costs throughput nothing in steady state, only
	// restart latency — §5.4).
	refill bool
	// pipe is the pipeline model's timing state; nil runs the analytic
	// model.
	pipe *pipeTiming
}

// backStep is the design-private half of one record, given its frontend
// outcome rec: the BPU resolves and trains the BTB/ITTAGE, the measured
// window counts the record, and the cycle accounting advances the runahead
// lead and the refill recurrence. Under the pipeline model, pipeStep
// takes the record instead.
func (s *sim) backStep(b *isa.Branch, rec warmRec) {
	if s.pipe != nil {
		s.pipeStep(b, rec)
		return
	}
	p := &s.cfg.Params
	measuring := s.seen >= s.cfg.WarmupInstrs
	s.seen += uint64(b.BlockLen)

	var pr prediction
	s.bpu.resolve(b, rec, &pr)
	misses := int(rec.misses)
	if measuring {
		s.measured += uint64(b.BlockLen)
		s.bpu.note(s.res, b, &pr)
		s.res.ICacheAccesses++
		s.res.ICacheMisses += uint64(misses)
	}

	// --- Cycle accounting (runahead/lead model, see package comment).
	// The BTB's extra lookup cycle is pipelined: back-to-back lookups
	// overlap, so steady-state supply is unaffected; the latency is exposed
	// only when the frontend restarts after a flush (and, mildly, as slower
	// runahead growth, modelled by the lead debit below).
	produce := produceCycles(&s.produceTab, b.BlockLen, p.FetchWidth)
	extraUsed := b.Taken && pr.look.Hit && pr.look.ExtraLatency > 0 && (pr.dirPred || !b.Kind.IsConditional())
	if extraUsed {
		// Taken-branch lookups form a serial recurrence (the next lookup
		// address is this lookup's target), so a multi-cycle BTB cannot be
		// fully pipelined across taken branches; next-block prediction
		// overlaps most of it. After a flush the full latency is exposed
		// once while the pipeline refills.
		produce += serializeFrac * float64(pr.look.ExtraLatency)
		if s.refill {
			produce += (1 - serializeFrac) * float64(pr.look.ExtraLatency)
		}
	}
	if b.Taken || !b.Kind.IsConditional() {
		s.refill = false
	}
	icacheStall := 0.0
	if misses > 0 {
		// A miss fills from the L2, or from beyond it when the L2 missed too.
		fillLat := float64(p.ICacheMissLat)
		if rec.flags&warmL2Miss != 0 {
			fillLat = float64(p.L2MissLat)
		}
		icacheStall = fillLat - s.lead
		if icacheStall < 0 {
			icacheStall = 0
		}
		// Extra misses in the same block fill back-to-back (pipelined L2).
		icacheStall += 2 * float64(misses-1)
	}
	consume := float64(b.BlockLen) * s.effCPI
	supply := produce + icacheStall
	bubble := supply - consume - s.lead
	if bubble < 0 {
		bubble = 0
	}
	s.lead += consume + bubble - supply
	if s.lead < 0 {
		s.lead = 0
	}
	if lim := float64(p.FetchQueueEntries); s.lead > lim {
		s.lead = lim
	}

	if measuring {
		s.res.Cycles += consume + bubble + float64(pr.penalty)
		s.res.BackendCycles += consume
		s.res.FrontendBubbles += bubble
	}
	if pr.penalty > 0 {
		s.lead = 0
		s.refill = true
		if p.WrongPathLines > 0 {
			s.polluteWrongPath(b, pr.look)
		}
	}
}

// produceTabLen bounds the produce-cycles lookup table; blocks longer than
// this (vanishingly rare — a block is one basic block) fall back to the
// division.
const produceTabLen = 256

// initProduceTab fills tab[l] = ceil(l/fetchWidth) so the per-record cycle
// accounting indexes instead of dividing.
func initProduceTab(tab *[produceTabLen]float64, fetchWidth int) {
	for i := range tab {
		tab[i] = float64((i + fetchWidth - 1) / fetchWidth)
	}
}

// produceCycles returns ceil(blockLen/fetchWidth) — width-limited cycles to
// supply the block — via the precomputed table when possible.
func produceCycles(tab *[produceTabLen]float64, blockLen uint16, fetchWidth int) float64 {
	if int(blockLen) < produceTabLen {
		return tab[blockLen]
	}
	return float64((int(blockLen) + fetchWidth - 1) / fetchWidth)
}

// polluteWrongPath models the ICache pollution of wrong-path fetch: until a
// resteer resolves, the frontend streams lines from wherever it (wrongly)
// went — the mispredicted target if it had one, the fallthrough otherwise.
func (s *sim) polluteWrongPath(b *isa.Branch, look btb.Lookup) {
	start := b.Fallthrough()
	if look.Hit && look.Target != b.NextPC() {
		start = look.Target
	}
	line := uint64(s.cfg.Params.ICacheLineBytes)
	for i := 0; i < s.cfg.Params.WrongPathLines; i++ {
		s.fe.ic.Access(start.Add(uint64(i) * line))
	}
}

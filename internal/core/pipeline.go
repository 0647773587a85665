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

// RunPipeline is the repository's second, more literal core model: instead
// of the analytic runahead credit of Run, it tracks explicit per-block
// timestamps through BPU → fetch-target queue → ICache/fetch → decode →
// retire, like an event-driven pipeline simulation.
//
//	bpuDone   — cycle the block's prediction leaves the BPU (1 block/cycle,
//	            stalled by FTQ occupancy; after a flush, the first
//	            prediction pays the BTB's extra latency, which is otherwise
//	            pipelined away)
//	fetchDone — ICache fill (prefetch starts at FTQ insert) plus
//	            width-limited fetch, in order
//	decodeAt  — fetchDone + decode depth
//	retire    — in-order, RetireWidth/BackendCPI limited
//
// Mispredictions flush: decode-detected (wrong direct target) restarts the
// BPU at decodeAt; execute-detected (direction, indirect, return) restarts
// at decodeAt + (ExecResteer − DecodeResteer). The penalties therefore
// emerge from pipeline geometry rather than being charged as constants —
// cross-validating the analytic model (see pipeline_test.go).
//
// Both models share the bpu (identical prediction, training and MPKI
// accounting); they differ only in how prediction behaviour becomes cycles.
func RunPipeline(cfg Config, src trace.Source) (*Result, error) {
	return RunPipelineContext(context.Background(), cfg, src)
}

// RunPipelineContext is RunPipeline with cancellation, mirroring
// RunContext: the record loop observes ctx every few thousand records.
func RunPipelineContext(ctx context.Context, cfg Config, src trace.Source) (*Result, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.BTB == nil {
		return nil, fmt.Errorf("core: no BTB configured")
	}
	if cfg.BackendCPI <= 0 {
		return nil, fmt.Errorf("core: BackendCPI must be positive")
	}
	fe, err := newFrontend(&cfg.Params, cfg.Direction, !cfg.StoreReturnsInBTB)
	if err != nil {
		return nil, err
	}

	p := &pipeline{
		cfg: cfg,
		fe:  fe,
		res: &Result{App: src.Name(), Design: cfg.BTB.Name() + "+pipe"},
	}
	p.bpu.cfg = &p.cfg
	p.effCPI = cfg.BackendCPI
	if min := 1 / float64(cfg.Params.RetireWidth); p.effCPI < min {
		p.effCPI = min
	}
	p.ftqFree = make([]float64, cfg.Params.FetchQueueEntries)
	initProduceTab(&p.produceTab, cfg.Params.FetchWidth)

	var auditable btb.Auditable
	if cfg.AuditEvery != 0 {
		auditable, _ = cfg.BTB.(btb.Auditable)
	}

	r := src.Open()
	records := uint64(0)
	batch := make([]isa.Branch, recordBatch)
loop:
	for {
		if err := checkCtx(ctx, records); err != nil {
			return nil, err
		}
		n, rerr := trace.ReadBatch(r, batch)
		for i := 0; i < n; i++ {
			p.step(batch[i])
			records++
			if auditable != nil && records%cfg.AuditEvery == 0 {
				if err := auditBTB(auditable, records-1); err != nil {
					return nil, err
				}
			}
			if cfg.MeasureInstrs != 0 && p.measured >= cfg.MeasureInstrs {
				break loop
			}
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
	if auditable != nil {
		if err := auditBTB(auditable, records); err != nil {
			return nil, err
		}
	}
	if p.retireEnd > p.measureStart {
		p.res.Cycles = p.retireEnd - p.measureStart
	}
	return p.res, nil
}

type pipeline struct {
	cfg    Config
	bpu    bpu
	fe     frontend
	res    *Result
	effCPI float64

	seen     uint64
	measured uint64

	// Timestamps, in cycles since simulation start.
	bpuDone      float64   // last prediction completion
	fetchEnd     float64   // last fetch completion (fetch is in-order)
	retireEnd    float64   // last retirement completion
	ftqFree      []float64 // ring: fetch-completion times of the last N blocks
	ftqPos       int
	refill       bool    // next prediction pays the BTB extra latency
	measureStart float64 // retireEnd when the measured window began
	started      bool
	// produceTab caches ceil(len/FetchWidth), as in sim.
	produceTab [produceTabLen]float64
}

func (p *pipeline) step(b isa.Branch) {
	par := &p.cfg.Params
	measuring := p.seen >= p.cfg.WarmupInstrs
	if measuring && !p.started {
		p.started = true
		p.measureStart = p.retireEnd
	}
	p.seen += uint64(b.BlockLen)
	if measuring {
		p.measured += uint64(b.BlockLen)
	}

	// --- BPU: one block prediction per cycle, gated by FTQ occupancy (the
	// slot freed by the block FetchQueueEntries back) and by how far the
	// frontend may run ahead of retirement (the queues between decode and
	// retire are finite; FetchQueueEntries cycles of runahead mirrors the
	// analytic model's lead cap).
	issueAt := p.bpuDone + 1
	if slotFree := p.ftqFree[p.ftqPos]; slotFree > issueAt {
		issueAt = slotFree
	}
	if floor := p.retireEnd - float64(par.FetchQueueEntries); issueAt < floor {
		issueAt = floor
	}

	rec := p.fe.step(b)
	pr := p.bpu.resolve(b, rec)
	extraUsed := b.Taken && pr.look.Hit && pr.look.ExtraLatency > 0 &&
		(pr.dirPred || !b.Kind.IsConditional())
	if extraUsed {
		// See sim.go: the taken-branch lookup recurrence serializes part of
		// the extra latency; the full latency shows once per refill.
		issueAt += serializeFrac * float64(pr.look.ExtraLatency)
		if p.refill {
			issueAt += (1 - serializeFrac) * float64(pr.look.ExtraLatency)
		}
	}
	if b.Taken || !b.Kind.IsConditional() {
		p.refill = false
	}
	p.bpuDone = issueAt

	// --- ICache: prefetch fires at FTQ insert; fills are pipelined, from
	// the L2 when it holds the line and from beyond otherwise.
	misses := int(rec.misses)
	ready := issueAt
	if misses > 0 {
		fillLat := float64(par.ICacheMissLat)
		if rec.flags&warmL2Miss != 0 {
			fillLat = float64(par.L2MissLat)
		}
		ready += fillLat + 2*float64(misses-1)
	}

	// --- Fetch: in-order, width-limited.
	fetchCycles := produceCycles(&p.produceTab, b.BlockLen, par.FetchWidth)
	fetchStart := ready
	if p.fetchEnd > fetchStart {
		fetchStart = p.fetchEnd
	}
	p.fetchEnd = fetchStart + fetchCycles
	p.ftqFree[p.ftqPos] = p.fetchEnd
	p.ftqPos = (p.ftqPos + 1) % len(p.ftqFree)

	// --- Decode and in-order retire.
	decodeAt := p.fetchEnd + float64(par.DecodeResteer)
	retireStart := decodeAt
	if p.retireEnd > retireStart {
		retireStart = p.retireEnd
	}
	newRetireEnd := retireStart + float64(b.BlockLen)*p.effCPI

	if measuring {
		p.bpu.note(p.res, b, pr)
		p.res.ICacheAccesses++
		p.res.ICacheMisses += uint64(misses)
		p.res.BackendCycles += float64(b.BlockLen) * p.effCPI
		bubble := newRetireEnd - p.retireEnd - float64(b.BlockLen)*p.effCPI
		if bubble > 0 {
			p.res.FrontendBubbles += bubble
		}
	}
	p.retireEnd = newRetireEnd

	// --- Resteer: restart the frontend where the misprediction is caught.
	if pr.penalty > 0 {
		restart := decodeAt
		if pr.kind != 1 || b.Kind.IsIndirect() {
			restart = decodeAt + float64(par.ExecResteer-par.DecodeResteer)
		}
		p.bpuDone = restart
		p.fetchEnd = restart
		for i := range p.ftqFree {
			p.ftqFree[i] = 0
		}
		p.ftqPos = 0
		p.refill = true
		if par.WrongPathLines > 0 {
			start := b.Fallthrough()
			if pr.look.Hit && pr.look.Target != b.NextPC() {
				start = pr.look.Target
			}
			line := uint64(par.ICacheLineBytes)
			for i := 0; i < par.WrongPathLines; i++ {
				p.fe.ic.Access(start.Add(uint64(i) * line))
			}
		}
	}
}

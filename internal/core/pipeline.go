package core

import "repro/internal/isa"

// The pipeline model is the repository's second, more literal core model.
// Config.UsePipeline selects it as the session's back half: instead of the
// analytic runahead credit of backStep, it tracks explicit per-block
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
// Both models share the frontend half and the bpu (identical prediction,
// training and MPKI accounting); they differ only in how prediction
// behaviour becomes cycles. RunContext, RunWarmContext and Session.Apply
// serve both.

// pipeTiming is the pipeline model's state: its timestamps, in cycles
// since simulation start, and the FTQ ring, allocated once per session.
type pipeTiming struct {
	bpuDone      float64   // last prediction completion
	fetchEnd     float64   // last fetch completion (fetch is in-order)
	retireEnd    float64   // last retirement completion
	ftqFree      []float64 // ring: fetch-completion times of the last N blocks
	ftqPos       int
	measureStart float64 // retireEnd when the measured window began
	started      bool
}

// pipeStep is backStep under the pipeline model. Result.Cycles is the
// retirement time since the measured window began, set on every measured
// record, so a Snapshot mid-window is live.
func (s *sim) pipeStep(b *isa.Branch, rec warmRec) {
	p, par := s.pipe, &s.cfg.Params
	measuring := s.seen >= s.cfg.WarmupInstrs
	if measuring && !p.started {
		p.started = true
		p.measureStart = p.retireEnd
	}
	s.seen += uint64(b.BlockLen)
	if measuring {
		s.measured += uint64(b.BlockLen)
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

	var pr prediction
	s.bpu.resolve(b, rec, &pr)
	extraUsed := b.Taken && pr.look.Hit && pr.look.ExtraLatency > 0 &&
		(pr.dirPred || !b.Kind.IsConditional())
	if extraUsed {
		// See backStep: the taken-branch lookup recurrence serializes part
		// of the extra latency; the full latency shows once per refill.
		issueAt += serializeFrac * float64(pr.look.ExtraLatency)
		if s.refill {
			issueAt += (1 - serializeFrac) * float64(pr.look.ExtraLatency)
		}
	}
	if b.Taken || !b.Kind.IsConditional() {
		s.refill = false
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
	fetchCycles := produceCycles(&s.produceTab, b.BlockLen, par.FetchWidth)
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
	newRetireEnd := retireStart + float64(b.BlockLen)*s.effCPI

	if measuring {
		s.bpu.note(s.res, b, &pr)
		s.res.ICacheAccesses++
		s.res.ICacheMisses += uint64(misses)
		s.res.BackendCycles += float64(b.BlockLen) * s.effCPI
		bubble := newRetireEnd - p.retireEnd - float64(b.BlockLen)*s.effCPI
		if bubble > 0 {
			s.res.FrontendBubbles += bubble
		}
		s.res.Cycles = newRetireEnd - p.measureStart
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
		s.refill = true
		if par.WrongPathLines > 0 {
			s.polluteWrongPath(b, pr.look)
		}
	}
}

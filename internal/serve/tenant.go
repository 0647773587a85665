package serve

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/trace"
)

// tenant is one client's simulation plus the bookkeeping that makes it
// survive crashes, shedding and restarts. The source of truth is the
// journal — the exact sequence of records ever applied, held as PDT1
// record bytes — not the simulator: the simulator can always be rebuilt by
// replaying the journal through a fresh core.Session, and determinism makes
// the rebuild bit-identical.
type tenant struct {
	name string

	// touch is the logical-clock stamp of the last request; the shedder
	// evicts the smallest stamps first.
	touch atomic.Uint64
	// gauges is what /metrics prints for the tenant, published under mu
	// and read without it.
	gauges atomic.Pointer[gauges]

	mu sync.Mutex // guards the fields below; the *Locked methods need it held
	// sess is the live simulator; nil when shed to disk or torn down
	// after a crash (rebuilt on demand by replaying the journal).
	sess *core.Session
	// journal holds every record ever applied, in order.
	journal trace.RecordLog
	// nextSeq is the next batch to apply — the exactly-once watermark,
	// persisted in checkpoints.
	nextSeq uint64
	// queued marks batch nextSeq as admitted to the apply queue and not
	// yet applied: a tenant has at most one batch queued. It is both the
	// admission gate and the shedder's activity check.
	queued bool
	// lastAck caches the ack for batch nextSeq-1, answering retries of the
	// most recent batch without touching the simulator.
	lastAck     BatchAck
	crashes     int
	quarantined bool
	// restored means the on-disk checkpoint has been loaded (or is known
	// absent); false after shedding so the next request reloads.
	restored bool
	// wantDigest is the checkpointed result digest, verified once against
	// the replayed state on the next rebuild.
	wantDigest string
}

// apply runs the tenant's queued batch, seq = nextSeq, to completion:
// lazy rebuild, the panic-isolated simulator step, journal append, and
// the ack. admit checked everything else while it queued the batch, and
// nothing changes the tenant's sequence or health while a batch is queued
// (the shedder skips it). apply is the only writer of nextSeq.
func (t *tenant) apply(s *Server, seq uint64, recs []isa.Branch) reply {
	t.mu.Lock()
	defer t.mu.Unlock()
	defer t.publishLocked()
	t.queued = false
	if rep := t.ensureSessionLocked(s); rep != nil {
		return *rep
	}

	var hook func()
	if s.cfg.ApplyHook != nil {
		h, name := s.cfg.ApplyHook, t.name
		hook = func() { h(name, seq) }
	}
	n, err := protectedApply(t.sess, hook, recs)
	if err != nil {
		// The session stepped an unknown number of records before failing;
		// discard it. The journal still holds the exact pre-batch state,
		// so the next batch rebuilds from there — the crashing batch was
		// never applied.
		t.sess = nil
		s.resident.Add(-1)
		t.crashes++
		s.met.crashes.Add(1)
		if t.crashes >= s.cfg.QuarantineAfter {
			t.quarantined = true
			s.met.quarantines.Add(1)
			return errReply(http.StatusServiceUnavailable, CodeQuarantined, false,
				"tenant %s quarantined after %d crashes (last: %v)", t.name, t.crashes, err)
		}
		return errReply(http.StatusInternalServerError, CodeCrashed, false,
			"batch %d crashed the simulator: %v", seq, err)
	}
	t.journal.Append(recs[:n])
	t.nextSeq = seq + 1
	ack := t.ackLocked(seq, n)
	t.lastAck = ack
	s.met.batches.Add(1)
	s.met.records.Add(uint64(n))
	return reply{status: http.StatusOK, ack: &ack}
}

// protectedApply is the panic-isolation boundary around the simulator: a
// panicking predictor (or injected test hook) becomes an error confined to
// this tenant instead of taking the process down.
func protectedApply(se *core.Session, hook func(), recs []isa.Branch) (n int, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	if hook != nil {
		hook()
	}
	n, _, err = se.Apply(recs)
	return n, err
}

// ackLocked builds the ack for batch seq from the live session state.
func (t *tenant) ackLocked(seq uint64, n int) BatchAck {
	snap := t.sess.Snapshot()
	return BatchAck{
		Tenant:       t.name,
		Seq:          seq,
		Records:      n,
		TotalRecords: t.sess.Records(),
		Instructions: snap.Instructions,
		MPKI:         snap.BTBMPKI(),
		IPC:          snap.IPC(),
		Digest:       ResultDigest(&snap),
	}
}

// duplicateAckLocked answers a batch that already applied. The most recent
// batch replays its cached full ack; older ones get a thin ack (the client
// already consumed their state long ago).
func (t *tenant) duplicateAckLocked(seq uint64) reply {
	if seq == t.nextSeq-1 && t.lastAck.Seq == seq {
		ack := t.lastAck
		ack.Duplicate = true
		ack.Records = 0
		return reply{status: http.StatusOK, ack: &ack}
	}
	return reply{status: http.StatusOK, ack: &BatchAck{Tenant: t.name, Seq: seq, Duplicate: true}}
}

// restoreLocked loads t's on-disk checkpoint the first time the tenant is
// touched after process start or shedding. A missing file means a fresh
// tenant; a checkpoint written under a different configuration is refused
// (the journal would replay into a different simulator).
func (t *tenant) restoreLocked(s *Server) *reply {
	if t.restored {
		return nil
	}
	if s.cfg.CheckpointDir == "" {
		t.restored = true
		return nil
	}
	data, err := os.ReadFile(checkpointPath(s.cfg.CheckpointDir, t.name))
	if errors.Is(err, fs.ErrNotExist) {
		t.restored = true
		return nil
	}
	if err != nil {
		rep := errReply(http.StatusInternalServerError, CodeInternal, true,
			"reading checkpoint for %s: %v", t.name, err)
		return &rep
	}
	ck, journal, err := decodeCheckpoint(data, s.digest, t.name)
	if err != nil {
		rep := errReply(http.StatusConflict, CodeCheckpoint, false, "%v", err)
		return &rep
	}
	t.journal = *journal
	t.nextSeq = ck.NextSeq
	t.crashes = ck.Crashes
	t.quarantined = ck.Quarantined
	t.wantDigest = ck.ResultDigest
	t.lastAck = BatchAck{}
	t.restored = true
	s.met.restores.Add(1)
	t.publishLocked()
	return nil
}

// replayChunk is how many journal records a rebuild decodes at a time.
const replayChunk = 1024

// replay applies a journal's records to se, a chunk at a time, and stops
// early only if se.Apply consumes nothing.
func replay(se *core.Session, r trace.BatchReader) error {
	buf := make([]isa.Branch, replayChunk)
	for {
		n, rerr := r.NextBatch(buf)
		for pos := 0; pos < n; {
			k, _, err := se.Apply(buf[pos:n])
			if err != nil {
				return err
			}
			if k == 0 {
				return nil
			}
			pos += k
		}
		if errors.Is(rerr, io.EOF) {
			return nil
		}
		if rerr != nil {
			return rerr
		}
	}
}

// ensureSessionLocked (re)builds t's simulator by replaying the journal
// through a fresh core.Session, then verifies the replayed state against
// the checkpointed result digest — a corrupted journal or a simulator
// change slips through the config digest only to be caught here.
func (t *tenant) ensureSessionLocked(s *Server) *reply {
	if t.sess != nil {
		return nil
	}
	se, err := s.cfg.NewSession(t.name)
	if err != nil {
		rep := errReply(http.StatusInternalServerError, CodeInternal, false,
			"building simulator for %s: %v", t.name, err)
		return &rep
	}
	if err := replay(se, t.journal.Open()); err != nil {
		rep := errReply(http.StatusInternalServerError, CodeInternal, false,
			"replaying journal for %s: %v", t.name, err)
		return &rep
	}
	if t.wantDigest != "" {
		snap := se.Snapshot()
		if got := ResultDigest(&snap); got != t.wantDigest {
			rep := errReply(http.StatusConflict, CodeCheckpoint, false,
				"replayed state digest %s does not match checkpointed %s for %s",
				got, t.wantDigest, t.name)
			return &rep
		}
		t.wantDigest = ""
	}
	t.sess = se
	if t.nextSeq > 1 {
		t.lastAck = t.ackLocked(t.nextSeq-1, 0)
	}
	s.resident.Add(1)
	t.publishLocked()
	return nil
}

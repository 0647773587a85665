package serve

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
)

// metrics are the service's operational counters. Everything is atomic:
// counters are bumped on hot paths that must not contend on a lock.
type metrics struct {
	batches          atomic.Uint64 // batches applied (exactly once each)
	records          atomic.Uint64 // records applied
	duplicates       atomic.Uint64 // retried batches answered from cache
	backpressure     atomic.Uint64 // 429s (a batch already queued, or the queue full)
	deadlines        atomic.Uint64 // requests that missed RequestTimeout
	truncated        atomic.Uint64 // bodies that died mid-stream
	crashes          atomic.Uint64 // simulator panics/audit failures contained
	quarantines      atomic.Uint64 // tenants quarantined
	shed             atomic.Uint64 // tenants checkpointed + freed under pressure
	restores         atomic.Uint64 // tenants restored from checkpoint
	checkpoints      atomic.Uint64 // checkpoint files written
	checkpointErrors atomic.Uint64
	drainRejects     atomic.Uint64 // requests refused while draining
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	io.WriteString(w, "ok\n")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	io.WriteString(w, "ready\n")
}

// handleMetrics renders the prometheus-style text exposition. Counters
// come first in a fixed order, then the apply queue's depth, then
// per-tenant gauges in sorted name order — the output is deterministic for
// a given state, so scrapes and tests can diff it. The per-tenant lines
// come from each tenant's published gauges, so a scrape takes no tenant
// lock and never waits on a batch that is applying.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var b strings.Builder
	counters := []struct {
		name string
		v    uint64
	}{
		{"pdede_serve_batches_applied_total", s.met.batches.Load()},
		{"pdede_serve_records_applied_total", s.met.records.Load()},
		{"pdede_serve_duplicate_batches_total", s.met.duplicates.Load()},
		{"pdede_serve_backpressure_total", s.met.backpressure.Load()},
		{"pdede_serve_deadline_misses_total", s.met.deadlines.Load()},
		{"pdede_serve_truncated_batches_total", s.met.truncated.Load()},
		{"pdede_serve_crashes_total", s.met.crashes.Load()},
		{"pdede_serve_quarantines_total", s.met.quarantines.Load()},
		{"pdede_serve_tenants_shed_total", s.met.shed.Load()},
		{"pdede_serve_tenants_restored_total", s.met.restores.Load()},
		{"pdede_serve_checkpoints_written_total", s.met.checkpoints.Load()},
		{"pdede_serve_checkpoint_errors_total", s.met.checkpointErrors.Load()},
		{"pdede_serve_drain_rejects_total", s.met.drainRejects.Load()},
	}
	for _, c := range counters {
		fmt.Fprintf(&b, "%s %d\n", c.name, c.v)
	}
	fmt.Fprintf(&b, "pdede_serve_resident_tenants %d\n", s.resident.Load())
	fmt.Fprintf(&b, "pdede_serve_queue_depth %d\n", len(s.queue))

	for _, t := range s.tenantsByName() {
		g := t.gauges.Load()
		pending := 0
		if g.pending {
			pending = 1
		}
		fmt.Fprintf(&b, "pdede_serve_tenant_next_seq{tenant=%q} %d\n", t.name, g.nextSeq)
		fmt.Fprintf(&b, "pdede_serve_tenant_journal_bytes{tenant=%q} %d\n", t.name, g.journalBytes)
		fmt.Fprintf(&b, "pdede_serve_tenant_pending{tenant=%q} %d\n", t.name, pending)
		if g.quarantined {
			fmt.Fprintf(&b, "pdede_serve_tenant_quarantined{tenant=%q} 1\n", t.name)
		}
		if g.resident {
			fmt.Fprintf(&b, "pdede_serve_tenant_mpki{tenant=%q} %s\n", t.name, formatFloat(g.mpki))
			fmt.Fprintf(&b, "pdede_serve_tenant_ipc{tenant=%q} %s\n", t.name, formatFloat(g.ipc))
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	io.WriteString(w, b.String())
}

// gauges is the snapshot of one tenant's /metrics lines. Every path that
// changes a printed field publishes a new one under t.mu (publishLocked),
// so a scrape at rest prints the tenant's current state. While a batch
// applies, a scrape prints the state before it, with the batch pending.
type gauges struct {
	nextSeq      uint64
	journalBytes int
	pending      bool
	quarantined  bool
	// resident marks a live session, whose mpki and ipc are printed.
	resident  bool
	mpki, ipc float64
}

// publishLocked replaces t's published gauges with its current state.
func (t *tenant) publishLocked() {
	g := &gauges{
		nextSeq:      t.nextSeq,
		journalBytes: t.journal.Size(),
		pending:      t.queued,
		quarantined:  t.quarantined,
	}
	if t.sess != nil {
		snap := t.sess.Snapshot()
		g.resident, g.mpki, g.ipc = true, snap.BTBMPKI(), snap.IPC()
	}
	t.gauges.Store(g)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

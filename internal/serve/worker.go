package serve

import "repro/internal/isa"

// job is one admitted batch on its way to a worker.
type job struct {
	t    *tenant
	seq  uint64
	recs []isa.Branch
	// reply is buffered(1) and receives exactly one send, so the worker
	// never blocks on a handler that already timed out and left.
	reply chan reply
}

// worker applies batches from the apply queue until Close closes it. Any
// worker may take any tenant's batch: admit queues at most one batch per
// tenant, so a tenant's batches still apply in sequence order.
func (s *Server) worker() {
	defer s.workers.Done()
	for jb := range s.queue {
		jb.reply <- jb.t.apply(s, jb.seq, jb.recs)
	}
}

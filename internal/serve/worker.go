package serve

import (
	"hash/fnv"
	"io"

	"repro/internal/isa"
)

// job is one admitted batch on its way to its tenant's worker shard.
type job struct {
	t    *tenant
	seq  uint64
	recs []isa.Branch
	// reply is buffered(1) and receives exactly one send, so the worker
	// never blocks on a handler that already timed out and left.
	reply chan reply
}

// worker drains one shard queue. Tenants shard to workers by name hash, so
// a tenant's batches always apply in admission order on one goroutine; the
// tenant lock inside apply makes that an invariant rather than a hope.
func (s *Server) worker(q chan job) {
	defer s.workers.Done()
	for jb := range q {
		// Reply is buffered(1) and receives exactly one send.
		jb.reply <- jb.t.apply(s, jb.seq, jb.recs)
	}
}

// shard maps a tenant name to its worker queue.
func shard(tenant string, n int) int {
	h := fnv.New32a()
	io.WriteString(h, tenant)
	return int(h.Sum32() % uint32(n))
}

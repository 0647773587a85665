// Package serve implements the pdede-serve daemon: a multi-tenant HTTP
// front end over core.Session. Each tenant is one independent simulation —
// its own BTB, direction predictor and caches — fed by streamed PDT1
// branch-trace batches and answering with rolling MPKI/IPC.
//
// The package is engineered failure-first:
//
//   - batches are sequence-numbered and applied exactly once, so client
//     retries after timeouts or restarts can never double-train a tenant;
//   - a tenant has at most one batch queued, the workers share one bounded
//     queue, and overflow of either is explicit backpressure (429 +
//     Retry-After), never an unbounded buffer;
//   - a panicking simulator is contained to its tenant: the session is
//     discarded, rebuilt from the journal, and the tenant quarantined
//     after repeated crashes;
//   - under the resident-tenant cap, the least-recently-touched idle
//     tenants are checkpointed to disk (internal/atomicio) and freed,
//     then restored on their next request;
//   - SIGTERM drain refuses new work, finishes what is queued, and
//     checkpoints every tenant; a restarted server restores them with
//     bit-identical rolling metrics (config-digest validated).
package serve

import (
	"bufio"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/trace"
)

// Config parameterizes a Server. The zero value of every optional field
// selects a sensible default (see New); Design is required. Once New has
// normalized its copy, the snapshot the Server holds never changes: no
// handler writes through it.
type Config struct {
	// Design builds each tenant's BTB and optionally adjusts the core
	// configuration (the experiments registry supplies these; the design
	// name feeds the config digest that validates checkpoints).
	Design experiments.Design
	// WarmupInstrs run with structures live but statistics off.
	WarmupInstrs uint64

	// Workers is the size of the apply pool. All workers drain one queue;
	// a tenant has at most one batch queued or applying, so its batches
	// apply in order whichever worker takes them. Default 4.
	Workers int
	// QueueDepth is the apply queue's share per worker: the queue holds
	// Workers × QueueDepth batches. Default 64.
	QueueDepth int
	// MaxBatchRecords rejects oversized batches (413). Default 1<<20.
	MaxBatchRecords int
	// MaxResidentTenants caps how many tenants keep a live simulator in
	// memory — the service's stand-in for memory pressure. Beyond the cap,
	// the least-recently-touched idle tenants are checkpointed and freed,
	// to be restored on their next request. 0 disables shedding; shedding
	// also requires CheckpointDir (state is never silently dropped).
	MaxResidentTenants int
	// CheckpointDir is where tenant checkpoints live; "" disables
	// checkpoint/restore (and therefore shedding and drain persistence).
	CheckpointDir string
	// QuarantineAfter stops accepting batches for a tenant after this many
	// simulator crashes. Default 3.
	QuarantineAfter int
	// RequestTimeout bounds a batch request from the moment it enters:
	// the read of its body and then its wait for the worker (queued +
	// applying) share the one deadline. A body still unread at the
	// deadline gets the retryable 400 truncated reply. A batch may still
	// apply after the 504; the client retries the same sequence number
	// and gets a duplicate ack. Default 30s; negative disables.
	RequestTimeout time.Duration
	// RetryAfter is the hint sent in the Retry-After header on
	// backpressure and drain responses (whole seconds, floored). Default 1s.
	RetryAfter time.Duration

	// ApplyHook, when non-nil, runs inside the panic-isolation boundary
	// just before each batch applies — a test seam for injecting simulator
	// crashes.
	ApplyHook func(tenant string, seq uint64)
}

// Server is the multi-tenant simulation service. Create with New, mount
// Handler, and Close on shutdown.
type Server struct {
	cfg    Config
	digest string
	queue  chan job

	workers  sync.WaitGroup
	inflight sync.WaitGroup
	clock    atomic.Uint64 // logical LRU clock for shedding
	resident atomic.Int64  // tenants with a live core.Session
	shedMu   sync.Mutex    // at most one shed sweep at a time
	met      metrics

	mu sync.Mutex // guards the fields below
	// tenants maps tenant name to its state. An entry is created by a
	// tenant's first batch, or by any request for a checkpointed tenant,
	// and never removed; shedding frees the heavy state inside.
	tenants map[string]*tenant
	// draining refuses new requests while inflight ones finish.
	draining bool
	closed   bool
}

// New validates cfg (by building a probe simulator), applies defaults, and
// starts the worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.Design.New == nil {
		return nil, fmt.Errorf("serve: Config.Design is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.MaxBatchRecords <= 0 {
		cfg.MaxBatchRecords = 1 << 20
	}
	if cfg.QuarantineAfter <= 0 {
		cfg.QuarantineAfter = 3
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.MaxResidentTenants > 0 && cfg.CheckpointDir == "" {
		return nil, fmt.Errorf("serve: MaxResidentTenants requires CheckpointDir (shedding must not drop state)")
	}
	if cfg.CheckpointDir != "" {
		if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}
	// A design that cannot build should fail at startup, not on the first
	// tenant's first batch.
	if _, err := cfg.NewSession("probe"); err != nil {
		return nil, fmt.Errorf("serve: design %q cannot serve: %w", cfg.Design.Name, err)
	}

	s := &Server{
		cfg:     cfg,
		tenants: make(map[string]*tenant),
	}
	s.digest = configDigest(&cfg)
	s.queue = make(chan job, cfg.Workers*cfg.QueueDepth)
	for range cfg.Workers {
		s.workers.Add(1)
		go s.worker()
	}
	return s, nil
}

// ConfigDigest identifies the simulation configuration; checkpoints carry
// it and a server refuses checkpoints written under a different one.
func (s *Server) ConfigDigest() string { return s.digest }

// NewSession builds one tenant's simulator from this service config. The
// server calls it per tenant; offline verifiers (the chaos harness, the
// drain tests) call it to replay a tenant's records outside the service
// and compare digests.
func (cfg *Config) NewSession(name string) (*core.Session, error) {
	tp, err := cfg.Design.New()
	if err != nil {
		return nil, err
	}
	cc := core.Config{
		Params:       core.Icelake(),
		BackendCPI:   1,
		BTB:          tp,
		WarmupInstrs: cfg.WarmupInstrs,
	}
	if cfg.Design.Mod != nil {
		cfg.Design.Mod(&cc)
	}
	return core.NewSession(cc, name)
}

// configDigest fingerprints everything that shapes a tenant's simulation:
// the design (name plus its structural digest from the experiments
// registry) and the core knobs NewSession sets. Two servers agree on
// tenant checkpoints iff their digests match. The fixed knobs keep their
// places in the format, the audit period as 0, so that checkpoints
// written by earlier builds still restore.
func configDigest(cfg *Config) string {
	dd := experiments.DesignDigests([]experiments.Design{cfg.Design})
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%+v|%g|%d|%d",
		cfg.Design.Name, dd[cfg.Design.Name], core.Icelake(),
		1.0, cfg.WarmupInstrs, 0)
	return fmt.Sprintf("%016x", h.Sum64())
}

// ResultDigest fingerprints a rolling result — every counter and cycle
// float. An offline replay of the same records produces the same digest
// iff the served simulation is bit-identical.
func ResultDigest(r *core.Result) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", *r)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Handler returns the service mux.
func (s *Server) Handler() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/tenants/{tenant}/batches/{seq}", s.handleBatch)
	mux.HandleFunc("GET /v1/tenants/{tenant}/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// reply is the outcome of one request: exactly one of ack or err is set.
type reply struct {
	status int
	ack    *BatchAck
	err    *ErrorBody
}

func errReply(status int, code string, retryable bool, format string, args ...any) reply {
	return reply{status: status, err: &ErrorBody{
		Error:     fmt.Sprintf(format, args...),
		Code:      code,
		Retryable: retryable,
	}}
}

func (s *Server) writeReply(w http.ResponseWriter, rep reply) {
	w.Header().Set("Content-Type", "application/json")
	if rep.status == http.StatusTooManyRequests ||
		(rep.err != nil && rep.err.Code == CodeDraining) {
		w.Header().Set(RetryAfterHeader, strconv.Itoa(int(s.cfg.RetryAfter/time.Second)))
	}
	w.WriteHeader(rep.status)
	enc := json.NewEncoder(w)
	if rep.ack != nil {
		enc.Encode(rep.ack)
		return
	}
	enc.Encode(rep.err)
}

// enterRequest registers an inflight request unless the server is
// draining. Registering under the same lock as the draining check means
// Close's inflight.Wait can never miss a request that saw draining=false.
func (s *Server) enterRequest() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

// tenantFor returns the named tenant's state. An unknown name gets a
// tenant only if create is set or a checkpoint holds its state, so a
// request that leaves no state behind leaves no tenant either; otherwise
// tenantFor returns nil.
func (s *Server) tenantFor(name string, create bool) *tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tenants[name]
	if t == nil && (create || s.checkpointed(name)) {
		t = &tenant{name: name, nextSeq: 1}
		t.publishLocked() // t is not shared yet
		s.tenants[name] = t
	}
	return t
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	if !validTenantName(name) {
		s.writeReply(w, errReply(http.StatusBadRequest, CodeBadRequest, false,
			"invalid tenant name %q", name))
		return
	}
	seq, err := strconv.ParseUint(r.PathValue("seq"), 10, 64)
	if err != nil || seq == 0 {
		s.writeReply(w, errReply(http.StatusBadRequest, CodeBadRequest, false,
			"invalid sequence number %q", r.PathValue("seq")))
		return
	}
	if !s.enterRequest() {
		s.met.drainRejects.Add(1)
		s.writeReply(w, errReply(http.StatusServiceUnavailable, CodeDraining, true,
			"server is draining"))
		return
	}
	defer s.inflight.Done()

	// One deadline bounds the body read and the wait for the worker, so a
	// client that stalls mid-body cannot hold its handler, connection and
	// inflight registration past it. (A second, later deadline for the
	// wait would not hold: once the body is read, net/http's background
	// read cancels r.Context() when the read deadline passes.) The error
	// is ignored: a ResponseWriter without a connection (a test recorder)
	// returns http.ErrNotSupported, and a closed connection fails the body
	// read anyway.
	ctx := r.Context()
	if s.cfg.RequestTimeout > 0 {
		deadline := time.Now().Add(s.cfg.RequestTimeout)
		_ = http.NewResponseController(w).SetReadDeadline(deadline)
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}

	// The whole body is decoded before any tenant state is touched: a
	// slow or dying client holds only its own request open and can never
	// stall a worker or leave a half-applied batch.
	recs, badBody := decodeBody(r.Body, s.cfg.MaxBatchRecords)
	if badBody != nil {
		if badBody.err.Code == CodeTruncated {
			s.met.truncated.Add(1)
		}
		s.writeReply(w, *badBody)
		return
	}

	t := s.tenantFor(name, seq == 1)
	if t == nil {
		s.writeReply(w, errReply(http.StatusConflict, CodeGap, false,
			"batch %d skips ahead: next expected is 1", seq))
		return
	}
	t.touch.Store(s.clock.Add(1))
	ch, rep := s.admit(t, seq, recs)
	if ch == nil {
		s.writeReply(w, rep)
		return
	}
	s.maybeShed()

	select {
	case out := <-ch:
		s.writeReply(w, out)
	case <-ctx.Done():
		s.met.deadlines.Add(1)
		s.writeReply(w, errReply(http.StatusGatewayTimeout, CodeDeadline, true,
			"batch %d missed its deadline; it may still apply — retry the same sequence number", seq))
	}
}

// admit decides one batch's fate under the tenant lock: duplicate ack,
// ordering error, quarantine refusal, backpressure, or enqueue on the
// apply queue. A tenant has at most one batch queued or applying, so
// nextSeq is the batch that must come next, and while it is queued the
// batch after it is refused with backpressure. A nil channel means rep is
// the final answer; otherwise the worker's reply arrives on the channel.
func (s *Server) admit(t *tenant, seq uint64, recs []isa.Branch) (chan reply, reply) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if rep := t.restoreLocked(s); rep != nil {
		return nil, *rep
	}
	if t.quarantined {
		return nil, errReply(http.StatusServiceUnavailable, CodeQuarantined, false,
			"tenant %s is quarantined after %d crashes", t.name, t.crashes)
	}
	// next is the first batch not yet admitted.
	next := t.nextSeq
	if t.queued {
		next++
	}
	switch {
	case seq < t.nextSeq:
		s.met.duplicates.Add(1)
		return nil, t.duplicateAckLocked(seq)
	case seq < next:
		return nil, errReply(http.StatusConflict, CodePending, true,
			"batch %d is already queued or in flight", seq)
	case seq > next:
		return nil, errReply(http.StatusConflict, CodeGap, false,
			"batch %d skips ahead: next expected is %d", seq, next)
	case t.queued:
		s.met.backpressure.Add(1)
		return nil, errReply(http.StatusTooManyRequests, CodeBackpressure, true,
			"tenant %s already has batch %d queued", t.name, t.nextSeq)
	}
	ch := make(chan reply, 1)
	select {
	case s.queue <- job{t: t, seq: seq, recs: recs, reply: ch}:
		t.queued = true
		t.publishLocked()
		return ch, reply{}
	default:
		s.met.backpressure.Add(1)
		return nil, errReply(http.StatusTooManyRequests, CodeBackpressure, true,
			"the apply queue is full")
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	if !validTenantName(name) {
		s.writeReply(w, errReply(http.StatusBadRequest, CodeBadRequest, false,
			"invalid tenant name %q", name))
		return
	}
	if !s.enterRequest() {
		s.met.drainRejects.Add(1)
		s.writeReply(w, errReply(http.StatusServiceUnavailable, CodeDraining, true,
			"server is draining"))
		return
	}
	defer s.inflight.Done()
	t := s.tenantFor(name, false)
	if t == nil {
		s.writeReply(w, errReply(http.StatusNotFound, CodeUnknownTenant, false,
			"tenant %s has no state", name))
		return
	}
	t.touch.Store(s.clock.Add(1))
	st, rep := s.statsFor(t)
	if rep != nil {
		s.writeReply(w, *rep)
		return
	}
	s.maybeShed()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

// statsFor snapshots one tenant, restoring (and if needed rebuilding) its
// state so the reported metrics are always authoritative.
func (s *Server) statsFor(t *tenant) (*TenantStats, *reply) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if rep := t.restoreLocked(s); rep != nil {
		return nil, rep
	}
	if t.nextSeq == 1 && t.journal.Len() == 0 && t.crashes == 0 {
		rep := errReply(http.StatusNotFound, CodeUnknownTenant, false,
			"tenant %s has no state", t.name)
		return nil, &rep
	}
	st := &TenantStats{
		Tenant:      t.name,
		NextSeq:     t.nextSeq,
		Resident:    t.sess != nil,
		Quarantined: t.quarantined,
		Crashes:     t.crashes,
	}
	if rep := t.ensureSessionLocked(s); rep != nil {
		return nil, rep
	}
	snap := t.sess.Snapshot()
	st.TotalRecords = t.sess.Records()
	st.Instructions = snap.Instructions
	st.MPKI = snap.BTBMPKI()
	st.IPC = snap.IPC()
	st.Digest = ResultDigest(&snap)
	return st, nil
}

// maybeShed checkpoints and frees the least-recently-touched idle tenants
// while the resident count exceeds the cap. At most one sweep runs at a
// time; a tenant with a batch queued is never shed. The touch stamps are
// unique but for tenants not yet stamped, which hold no session and so are
// not shed either, so the sweep's order needs no tie-break.
func (s *Server) maybeShed() {
	max := s.cfg.MaxResidentTenants
	if max <= 0 || s.cfg.CheckpointDir == "" {
		return
	}
	if int(s.resident.Load()) <= max {
		return
	}
	if !s.shedMu.TryLock() {
		return
	}
	defer s.shedMu.Unlock()

	type cand struct {
		t     *tenant
		touch uint64
	}
	s.mu.Lock()
	cands := make([]cand, 0, len(s.tenants))
	for _, t := range s.tenants {
		cands = append(cands, cand{t, t.touch.Load()})
	}
	s.mu.Unlock()
	slices.SortFunc(cands, func(a, b cand) int { return cmp.Compare(a.touch, b.touch) })
	for _, c := range cands {
		if int(s.resident.Load()) <= max {
			break
		}
		s.shedOne(c.t)
	}
}

// shedOne checkpoints one idle tenant and frees its simulator and journal;
// the next request restores it from disk. On checkpoint failure the tenant
// stays resident — state is never dropped.
func (s *Server) shedOne(t *tenant) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sess == nil || t.queued {
		return
	}
	if err := t.checkpointLocked(s); err != nil {
		s.met.checkpointErrors.Add(1)
		return
	}
	t.sess = nil
	t.journal = trace.RecordLog{}
	t.restored = false
	t.lastAck = BatchAck{}
	t.wantDigest = ""
	t.publishLocked()
	s.resident.Add(-1)
	s.met.shed.Add(1)
}

// BeginDrain flips the server into drain mode: /readyz reports 503 and new
// requests are refused with a retryable "draining" error, while queued and
// inflight batches keep applying.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.draining = true
}

// Close drains and shuts down: refuse new requests, wait for inflight ones
// (every admitted batch is applied and acked), stop the workers, then
// checkpoint every tenant. A server restarted on the same CheckpointDir
// resumes each tenant bit-identically. The error names every tenant whose
// checkpoint failed. Close is idempotent.
func (s *Server) Close() error {
	s.BeginDrain()
	s.inflight.Wait()
	s.mu.Lock()
	wasClosed := s.closed
	s.closed = true
	s.mu.Unlock()
	if wasClosed {
		return nil
	}
	close(s.queue)
	s.workers.Wait()
	return s.checkpointAll()
}

// Shutdown drains s behind hs, as pdede-serve does on SIGTERM: new
// requests are refused and inflight ones get up to timeout to finish.
// http.Server.Shutdown never closes an active connection, so the ones
// still open then are closed, which ends a request whose client stalled
// mid-body; Close would wait on it for good. Close then checkpoints every
// tenant. A timeout is reported in the error, joined with Close's.
func (s *Server) Shutdown(hs *http.Server, timeout time.Duration) error {
	s.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	err := hs.Shutdown(ctx)
	if err != nil {
		hs.Close()
		err = fmt.Errorf("serve: closed the connections still open after %v: %w", timeout, err)
	}
	return errors.Join(err, s.Close())
}

// checkpointAll persists every tenant that holds state this process
// created or loaded, and joins the errors of those it could not, in name
// order. Tenants already shed to disk (restored=false) are skipped: their
// checkpoint is the current truth.
func (s *Server) checkpointAll() error {
	if s.cfg.CheckpointDir == "" {
		return nil
	}
	var errs []error
	for _, t := range s.tenantsByName() {
		t.mu.Lock()
		if t.restored && (t.nextSeq > 1 || t.crashes > 0) {
			if err := t.checkpointLocked(s); err != nil {
				s.met.checkpointErrors.Add(1)
				errs = append(errs, err)
			}
		}
		t.mu.Unlock()
	}
	return errors.Join(errs...)
}

// tenantsByName snapshots the tenant map in name order, so that what is
// built from it does not depend on the map's iteration order.
func (s *Server) tenantsByName() []*tenant {
	s.mu.Lock()
	ts := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		ts = append(ts, t)
	}
	s.mu.Unlock()
	slices.SortFunc(ts, func(a, b *tenant) int { return strings.Compare(a.name, b.name) })
	return ts
}

// bodyRecords is the record count decodeBody first sizes a batch for, the
// size of the batches pdede-serve's clients send; a larger batch grows
// from there.
const bodyRecords = 256

// bodyReaders recycles the buffered readers decodeBody reads bodies
// through. trace.NewDecoder decodes from a *bufio.Reader of bufio's default
// size as it is, so a body costs no 4 KiB buffer of its own.
var bodyReaders = sync.Pool{New: func() any { return bufio.NewReader(nil) }}

// decodeBody reads a whole PDT1 batch into memory, decoding batches of
// records straight into the slice it returns. Any mid-stream decode
// failure maps to the retryable "truncated" error: whether the client died,
// stalled past the request deadline or until a drain closed its
// connection (Server.Shutdown), or sent garbage, nothing was applied and a
// rebuilt body can succeed.
func decodeBody(r io.Reader, max int) ([]isa.Branch, *reply) {
	fail := func(err error) ([]isa.Branch, *reply) {
		rep := errReply(http.StatusBadRequest, CodeTruncated, true, "decoding batch: %v", err)
		return nil, &rep
	}
	br := bodyReaders.Get().(*bufio.Reader)
	br.Reset(r)
	defer func() {
		br.Reset(nil) // hold no reference to the body in the pool
		bodyReaders.Put(br)
	}()
	d, err := trace.NewDecoder(br)
	if err != nil {
		return fail(err)
	}
	// Room for one record past max tells a full batch from an oversized
	// one, and lets a bodyRecords batch decode, trailer included, in one
	// NextBatch call.
	recs := make([]isa.Branch, min(max, bodyRecords)+1)
	n := 0
	for {
		k, err := d.NextBatch(recs[n:])
		n += k
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return fail(err)
		}
		if n > max {
			rep := errReply(http.StatusRequestEntityTooLarge, CodeTooLarge, false,
				"batch exceeds %d records", max)
			return nil, &rep
		}
		// recs is full and the body goes on: double it, to at most max+1.
		recs = slices.Grow(recs, n)[:min(2*n, max+1)]
	}
	if n == 0 {
		rep := errReply(http.StatusBadRequest, CodeBadRequest, false, "empty batch")
		return nil, &rep
	}
	return recs[:n], nil
}

// validTenantName accepts [A-Za-z0-9_.-]{1,64}, not starting with a dot
// (checkpoint files are <name>.ckpt; dot-prefixed names would collide with
// atomicio temp files).
func validTenantName(name string) bool {
	if len(name) == 0 || len(name) > 64 || name[0] == '.' {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '_', c == '-', c == '.':
		default:
			return false
		}
	}
	return true
}

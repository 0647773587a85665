package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/trace"
	"repro/internal/workload"
)

// latencyLimit is the serve workload's limit on p99 batch latency.
const latencyLimit = 5 * time.Millisecond

// phaseTimeout bounds one phase's requests, so a wedged server fails the
// run instead of hanging it.
const phaseTimeout = 60 * time.Second

// servedDesign is the design every tenant of the service simulates.
const servedDesign = experiments.NameMultiEntry

func tenantName(i int) string { return fmt.Sprintf("t%05d", i) }

// setupServe builds every tenant's trace and starts (and stops) one
// server, the start-up each phase pays again.
func setupServe(r *run) (*inputs, setupTimes, error) {
	t0 := time.Now()
	in := &inputs{designs: designsByName([]string{servedDesign})}
	n := r.sz.batchRecords * r.sz.tenantBatches
	for i := 0; i < r.sz.tenants; i++ {
		// Small programs, as in the service's chaos harness: a batch costs
		// the simulator tens of microseconds, so HTTP, the PDT1 codec and
		// queueing dominate an ack.
		cfg := workload.Default()
		cfg.Name = tenantName(i)
		cfg.StaticBranches = 300
		s, err := buildRecords(seeded(cfg, r.seed, i), n)
		if err != nil {
			return nil, setupTimes{}, err
		}
		in.streams = append(in.streams, s)
	}
	in.warmup = in.streams[0].instrs / 4
	tb := time.Since(t0)
	h, err := startServer(r.seed, r.sz.conns)
	if err != nil {
		return nil, setupTimes{}, err
	}
	if err := h.close(); err != nil {
		return nil, setupTimes{}, err
	}
	return in, setupTimes{total: time.Since(t0), build: tb}, nil
}

// server is one pdede-serve instance on a loopback listener, with the
// client the load generator sends through.
type server struct {
	cfg     serve.Config
	srv     *serve.Server
	ts      *httptest.Server
	tr      *http.Transport
	c       *client.Client
	retries atomic.Int64
}

func startServer(seed uint64, conns int) (*server, error) {
	h := &server{cfg: serve.Config{Design: designsByName([]string{servedDesign})[0], Workers: 2}}
	srv, err := serve.New(h.cfg)
	if err != nil {
		return nil, err
	}
	h.srv = srv
	h.ts = httptest.NewServer(srv.Handler())
	h.tr = &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	h.c = client.New(client.Options{
		BaseURL:     h.ts.URL,
		HTTP:        &http.Client{Transport: h.tr},
		Retries:     3,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  10 * time.Millisecond,
		Seed:        seed,
		Fault: func(_ string, _ uint64, attempt int) trace.FaultPlan {
			if attempt > 0 {
				h.retries.Add(1)
			}
			return trace.FaultPlan{}
		},
	})
	return h, nil
}

// close stops the listener, then drains the service.
func (h *server) close() error {
	h.ts.Close()
	h.tr.CloseIdleConnections()
	return h.srv.Close()
}

// counter reads one counter from the service's /metrics text.
func (h *server) counter(name string) (float64, error) {
	resp, err := h.ts.Client().Get(h.ts.URL + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(body, []byte("\n")) {
		var v float64
		if n, _ := fmt.Sscanf(string(line), name+" %g", &v); n == 1 {
			return v, nil
		}
	}
	return 0, fmt.Errorf("/metrics has no %s", name)
}

// batchOf is tenant t's batch seq. A tenant that has sent its whole trace
// starts over from the beginning, as new batches.
func batchOf(t *stream, seq uint64, n int) []isa.Branch {
	k := int((seq - 1) % uint64(len(t.recs)/n))
	return t.recs[k*n : (k+1)*n]
}

// phase is one completed load phase.
type phase struct {
	load    load
	samples []*sample
	elapsed time.Duration // first due time to last ack
}

// ok returns the samples of acknowledged batches.
func (p *phase) ok() []*sample {
	var out []*sample
	for _, s := range p.samples {
		if s.Err == nil {
			out = append(out, s)
		}
	}
	return out
}

// latenciesMS returns the acknowledged batches' latencies in ms.
func (p *phase) latenciesMS() []float64 {
	var out []float64
	for _, s := range p.ok() {
		out = append(out, float64(s.latency().Nanoseconds())/1e6)
	}
	return out
}

// runPhase sends one phase of l from tenants to a fresh server, then
// checks each tenant's served state against an offline replay of the
// batches it sent. With a tracer, every batch gets a span with its
// generator-lag and ack children, and the offline check adds encode,
// decode and apply spans under the same request id.
func runPhase(r *run, tenants []stream, l load) (*phase, *server, error) {
	h, err := startServer(r.seed, l.Conns)
	if err != nil {
		return nil, nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), phaseTimeout)
	defer cancel()
	n := r.sz.batchRecords
	send := func(s *sample) error {
		recs := batchOf(&tenants[s.Tenant], s.Seq, n)
		ack, err := h.c.SendBatch(ctx, tenantName(s.Tenant), s.Seq, recs)
		if err != nil {
			return err
		}
		if ack.Duplicate || ack.Records != n || ack.TotalRecords != s.Seq*uint64(n) {
			return fmt.Errorf("ack %+v does not apply batch %d of %d records exactly once", *ack, s.Seq, n)
		}
		return nil
	}
	p := &phase{load: l, samples: drive(wallClock{}, l, send)}
	if len(p.samples) == 0 {
		h.close()
		return nil, nil, fmt.Errorf("phase %+v sent no batches", l)
	}
	for _, s := range p.samples {
		p.elapsed = max(p.elapsed, s.Acked.Sub(p.samples[0].Due))
		r.check(s.Err == nil, "%s batch %d: %v", tenantName(s.Tenant), s.Seq, s.Err)
	}
	if r.tr != nil {
		for _, s := range p.samples {
			req := fmt.Sprintf("%s/%d", tenantName(s.Tenant), s.Seq)
			id := r.tr.add("serve.batch", -1, req, s.Due, s.Acked)
			r.tr.add("serve.gen_lag", id, req, s.Due, s.Sent)
			r.tr.add("serve.ack", id, req, s.Sent, s.Acked)
		}
	}
	if err := verifyTenants(r, h, tenants, p.samples); err != nil {
		h.close()
		return nil, nil, err
	}
	return p, h, nil
}

// verifyTenants compares every tenant's /stats digest with an offline
// core.Session replay of the batches it had acknowledged.
func verifyTenants(r *run, h *server, tenants []stream, samples []*sample) error {
	last := make([]uint64, len(tenants))
	for _, s := range samples {
		if s.Err == nil {
			last[s.Tenant] = max(last[s.Tenant], s.Seq)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), phaseTimeout)
	defer cancel()
	n := r.sz.batchRecords
	for i := range tenants {
		if last[i] == 0 {
			continue
		}
		name := tenantName(i)
		st, err := h.c.Stats(ctx, name)
		if err != nil {
			r.check(false, "%s stats: %v", name, err)
			continue
		}
		se, err := h.cfg.NewSession(name)
		if err != nil {
			return err
		}
		for seq := uint64(1); seq <= last[i]; seq++ {
			recs := batchOf(&tenants[i], seq, n)
			if r.tr != nil {
				if err := traceCodec(r.tr, fmt.Sprintf("%s/%d", name, seq), name, recs); err != nil {
					return err
				}
			}
			t0 := time.Now()
			_, _, err := se.Apply(recs)
			if r.tr != nil {
				r.tr.add("serve.apply", -1, fmt.Sprintf("%s/%d", name, seq), t0, time.Now())
			}
			if err != nil {
				return fmt.Errorf("%s offline replay: %w", name, err)
			}
		}
		snap := se.Snapshot()
		r.checkDigest(name, serve.ResultDigest(&snap), st.Digest)
	}
	return nil
}

// traceCodec times the client's PDT1 encoding of one batch and the
// server's decoding of it, outside the request so the phase's latencies
// are not disturbed.
func traceCodec(tr *tracer, req, name string, recs []isa.Branch) error {
	var buf bytes.Buffer
	t0 := time.Now()
	if err := trace.Write(&buf, name, (&trace.Memory{TraceName: name, Records: recs}).Open()); err != nil {
		return err
	}
	t1 := time.Now()
	d, err := trace.NewDecoder(&buf)
	if err != nil {
		return err
	}
	got := 0
	for {
		_, err := d.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		got++
	}
	t2 := time.Now()
	if got != len(recs) {
		return fmt.Errorf("PDT1 round trip of %s: %d records, want %d", req, got, len(recs))
	}
	tr.add("trace.pdt1_encode", -1, req, t0, t1)
	tr.add("trace.pdt1_decode", -1, req, t1, t2)
	return nil
}

// serveRounds is how many times the serve workload cycles through its
// phases. Short phases spread over the whole run sample the host's slow
// and fast stretches alike, as the capture workloads' interleaved passes
// do.
const serveRounds = 4

// measureServe runs, serveRounds times over, an open-loop phase at each
// rate and then closed-loop bursts at full speed, each phase and burst
// against a fresh server. Open-loop phases take 60% of the run. Bursts are
// short and many because a tenant's journal keeps every batch it was sent:
// memory grows with the batches a server has taken.
func measureServe(r *run, in *inputs) error {
	start := time.Now()
	open := time.Duration(0.6 * float64(r.seconds) / float64(serveRounds*len(r.sz.rates)))
	heap := 0.0
	var phases []*phase
	var bursts []time.Duration
	var closedLat []float64
	var recs int
	var instrs uint64
	for round := 1; round <= serveRounds; round++ {
		for _, rate := range r.sz.rates {
			p, h, err := runPhase(r, in.streams, load{Tenants: len(in.streams), Conns: r.sz.conns, Rate: rate, For: open})
			if err != nil {
				return err
			}
			// The server, with every tenant it took, is still up.
			heap = max(heap, liveHeapMB())
			if err := h.close(); err != nil {
				return err
			}
			phases = append(phases, p)
		}
		deadline := start.Add(time.Duration(round) * r.seconds / serveRounds)
		for reps := 0; reps == 0 || time.Now().Before(deadline); reps++ {
			p, h, err := runPhase(r, in.streams, load{Tenants: len(in.streams), Conns: r.sz.conns, Batches: r.sz.closedBatches})
			if err != nil {
				return err
			}
			if err := h.close(); err != nil {
				return err
			}
			if recs == 0 {
				for _, s := range p.samples {
					for _, b := range batchOf(&in.streams[s.Tenant], s.Seq, r.sz.batchRecords) {
						instrs += uint64(b.BlockLen)
					}
				}
				recs = len(p.samples) * r.sz.batchRecords
			}
			bursts = append(bursts, p.elapsed)
			closedLat = append(closedLat, p.latenciesMS()...)
		}
	}
	for _, rate := range r.sz.rates {
		reportOpen(r, rate, phases)
	}
	r.logf("serve closed loop, %d conns, bursts of %d batches: ack ms %s", r.sz.conns, r.sz.closedBatches, summarize(closedLat))
	reportRates(r, "closed-loop burst", recs, instrs, bursts)
	ns, err := fastDecileNS(float64(recs), bursts)
	if err != nil {
		return err
	}
	r.set("sim_ns_per_rec", ns)
	// The highest rate's median: the open-loop latency of a loaded, not
	// saturated, service.
	rate := r.sz.rates[len(r.sz.rates)-1]
	hi := openLatencies(phases, rate)
	if len(hi) == 0 {
		return fmt.Errorf("no batch acknowledged at %g/s", rate)
	}
	r.set("latency_ms", must(median(hi)))
	r.set("heap_mb", heap)
	return nil
}

// openLatencies pools the latencies, in ms, of the acknowledged batches
// of the phases at rate.
func openLatencies(phases []*phase, rate float64) []float64 {
	var out []float64
	for _, p := range phases {
		if p.load.Rate == rate {
			out = append(out, p.latenciesMS()...)
		}
	}
	return out
}

// reportOpen prints the latency table of the open-loop phases at rate.
func reportOpen(r *run, rate float64, phases []*phase) {
	lat := openLatencies(phases, rate)
	var sent, acked, n int
	var elapsed, length time.Duration
	var lag []float64
	for _, p := range phases {
		if p.load.Rate != rate {
			continue
		}
		n++
		length = p.load.For
		ok := p.ok()
		sent += len(p.samples)
		acked += len(ok)
		elapsed += p.elapsed
		for _, s := range ok {
			lag = append(lag, float64(s.lag().Nanoseconds())/1e6)
		}
	}
	line := fmt.Sprintf("serve open %g/s, %d phases of %v: %d sent, %d acked, %.0f batches/s; ack ms %s",
		rate, n, length, sent, acked, float64(acked)/elapsed.Seconds(), summarize(lat))
	if p99, err := percentile(lat, 0.99); err == nil {
		verdict := "meets"
		if p99 > float64(latencyLimit.Microseconds())/1e3 {
			verdict = "misses"
		}
		line += fmt.Sprintf(", p99 %.3f (%s the %v limit)", p99, verdict, latencyLimit)
	} else {
		line += ", p99 not reported: " + err.Error()
	}
	if lp, err := percentile(lag, 0.99); err == nil {
		line += fmt.Sprintf("; generator lag p99 %.3f ms", lp)
	}
	r.logf("%s", line)
}

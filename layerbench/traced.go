package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/serve"
	"repro/internal/trace"
)

// maxTracedStreams bounds how many of a workload's streams the traced
// capture, layer and runner paths cover.
const maxTracedStreams = 4

// tracedRounds is how many rounds the traced run makes over the capture
// path and the layer replays. A round runs both back to back, so a slow
// stretch of the host falls on the whole and on its parts alike; each
// per-record cost is the median over the rounds.
const tracedRounds = 3

// tracedRun measures every layer on the workload's own records. It drives
// the three user paths from outside with spans around each layer's calls:
// the capture path (a decode and an apply span per batch), the suite
// runner (a span per trace open, from the runner's first read to its
// last) and the service (due, send and ack of each batch). Between capture
// passes it replays the same records through each layer alone, and sets
// the sum of the layers against the capture path's time.
func tracedRun(r *run, in *inputs) error {
	probe := newHostProbe()
	streams := in.streams[:min(len(in.streams), maxTracedStreams)]
	cd := designsByName(coreDesigns)

	probe.sample(3)
	lc, err := tracedCapture(r, in, streams, cd, probe)
	if err != nil {
		return err
	}
	lc.set(r)
	designs := in.designs
	if len(designs) < 2 {
		designs = cd
	}
	if err := tracedSuite(r, streams, in.warmup, designs); err != nil {
		return err
	}
	probe.sample(3)
	if err := tracedServe(r, in); err != nil {
		return err
	}
	probe.sample(3)
	q1, _, q3, err := quartiles(probe.ms)
	if err != nil {
		return err
	}
	r.set("host.probe_ms_q1", q1)
	r.set("host.probe_ms_q3", q3)
	attribution(r, lc)
	return nil
}

// tracedCapture makes tracedRounds rounds. Each round runs the capture path
// over every stream under every core design with a decode and an apply
// span per batch, an untraced pass over the first stream per design to
// price the spans, and a replay of the layers. Every result is checked
// against an in-memory run. It returns the layers' median costs.
func tracedCapture(r *run, in *inputs, streams []stream, designs []experiments.Design, probe *hostProbe) (*layerCosts, error) {
	if len(in.pdtz) == 0 {
		var writes []float64
		for i := range streams {
			t0 := time.Now()
			path, err := writePdtz(r.dir, &streams[i])
			if err != nil {
				return nil, err
			}
			writes = append(writes, time.Since(t0).Seconds())
			in.pdtz = append(in.pdtz, path)
		}
		r.set("workload.pdtz_write_s", must(median(writes)))
	}
	ref, err := referenceDigests(&inputs{streams: streams, warmup: in.warmup}, designs)
	if err != nil {
		return nil, err
	}
	var bytes int64
	records := 0
	for i := range streams {
		fi, err := os.Stat(in.pdtz[i])
		if err != nil {
			return nil, err
		}
		bytes += fi.Size()
		records += len(streams[i].recs)
	}

	// Per round: decode time over all passes, apply time per design over
	// all streams, and the layer replay; per round and design, stream 0's
	// traced pass time over the untraced pass just before it.
	var decode, overhead []float64
	apply := map[string][]float64{}
	var layers []*layerCosts
	sim := map[string]*core.Result{} // first round, summed over streams
	for round := 0; round < tracedRounds; round++ {
		var dec time.Duration
		for _, d := range designs {
			s := &streams[0]
			key := cellKey(s.app.Name, d.Name)
			cfg, err := coreConfig(d, s.app, in.warmup)
			if err != nil {
				return nil, err
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			el, res, err := capturePass(cfg, in.pdtz[0])
			runtime.ReadMemStats(&after)
			if err != nil {
				return nil, err
			}
			r.checkDigest(key+" untraced", ref[key], serve.ResultDigest(res))
			untraced := el
			if round == 0 && d.Name == experiments.NameMultiEntry {
				r.set("core.alloc_bytes_per_krec", float64(after.TotalAlloc-before.TotalAlloc)/float64(len(s.recs))*1e3)
			}

			var app time.Duration
			for i := range streams {
				s := &streams[i]
				key := cellKey(s.app.Name, d.Name)
				cfg, err := coreConfig(d, s.app, in.warmup)
				if err != nil {
					return nil, err
				}
				el, sd, sa, res, err := tracedPass(r.tr, cfg, in.pdtz[i], key)
				if err != nil {
					return nil, err
				}
				r.checkDigest(key+" traced", ref[key], serve.ResultDigest(res))
				if i == 0 {
					overhead = append(overhead, el.Seconds()/untraced.Seconds()-1)
				}
				dec += sd
				app += sa
				if round == 0 {
					sim[d.Name] = addResult(sim[d.Name], res)
				}
			}
			apply[d.Name] = append(apply[d.Name], app.Seconds())
		}
		decode = append(decode, dec.Seconds())
		lc, err := replayLayers(streams, benchDesigns())
		if err != nil {
			return nil, err
		}
		layers = append(layers, lc)
		probe.sample(1)
	}

	for _, d := range designs {
		r.set("core."+d.Name+".apply_ns_per_rec", must(median(apply[d.Name]))*1e9/float64(records))
		r.set("core."+d.Name+".ipc", sim[d.Name].IPC())
		r.set("core."+d.Name+".btb_mpki", sim[d.Name].BTBMPKI())
	}
	r.set("host.trace_overhead_frac", must(median(overhead)))
	r.set("trace.pdtz_bytes_per_rec", float64(bytes)/float64(records))
	r.set("trace.pdtz_decode_ns_per_rec", must(median(decode))*1e9/float64(records*len(designs)))
	return medianLayers(layers), nil
}

// addResult sums the counts IPC and BTB MPKI derive from.
func addResult(sum, r *core.Result) *core.Result {
	if sum == nil {
		sum = &core.Result{}
	}
	sum.Instructions += r.Instructions
	sum.Cycles += r.Cycles
	for c := range r.BTBMissByClass {
		sum.BTBMissByClass[c] += r.BTBMissByClass[c]
	}
	return sum
}

// tracedPass is capturePass driven by hand: the same loop core.RunContext
// runs, with a span around each BlockReader.NextBatch (decode) and each
// Session.Apply (apply).
func tracedPass(tr *tracer, cfg core.Config, path, req string) (el, decode, apply time.Duration, _ *core.Result, _ error) {
	t0 := time.Now()
	z, err := trace.OpenPdtz(path)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	defer z.Close()
	root := tr.begin("capture.pass", -1, req, t0)
	se, err := core.NewSession(cfg, z.Name())
	if err != nil {
		return 0, 0, 0, nil, err
	}
	rd := z.Open()
	batch := make([]isa.Branch, 1<<12) // core.RunContext's batch size
	for {
		ta := time.Now()
		n, rerr := trace.ReadBatch(rd, batch)
		tb := time.Now()
		_, done, err := se.Apply(batch[:n])
		tc := time.Now()
		tr.add("trace.decode", root, req, ta, tb)
		tr.add("core.apply", root, req, tb, tc)
		decode += tb.Sub(ta)
		apply += tc.Sub(tb)
		if err != nil {
			return 0, 0, 0, nil, err
		}
		if done {
			break
		}
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				break
			}
			return 0, 0, 0, nil, rerr
		}
		if n == 0 {
			break
		}
	}
	if err := se.Audit(); err != nil {
		return 0, 0, 0, nil, err
	}
	if err := z.Close(); err != nil {
		return 0, 0, 0, nil, err
	}
	end := time.Now()
	tr.end(root, end)
	return end.Sub(t0), decode, apply, se.Result(), nil
}

// spanSource wraps a suite trace so that each Open becomes a span, from
// the open to the runner's last read. The runner's first open of an app's
// trace is its shared warm pass; the rest are design cells.
type spanSource struct {
	trace.Source
	tr    *tracer
	opens atomic.Int32
}

func (s *spanSource) Open() trace.Reader {
	name := "experiments.cell"
	if s.opens.Add(1) == 1 {
		name = "experiments.warm_pass"
	}
	return &spanReader{r: s.Source.Open(), tr: s.tr, id: s.tr.begin(name, -1, s.Name(), time.Now())}
}

// spanReader extends its span to every read it serves.
type spanReader struct {
	r  trace.Reader
	tr *tracer
	id int
}

func (s *spanReader) Next() (isa.Branch, error) {
	b, err := s.r.Next()
	s.tr.end(s.id, time.Now())
	return b, err
}

func (s *spanReader) NextBatch(buf []isa.Branch) (int, error) {
	n, err := trace.ReadBatch(s.r, buf)
	s.tr.end(s.id, time.Now())
	return n, err
}

// tracedSuite runs the runner over streams untraced, then traced, and
// checks that the two exports are identical.
func tracedSuite(r *run, streams []stream, warmup uint64, designs []experiments.Design) error {
	_, _, ref := runSuite(r, suiteOptions(streams, warmup, r.sz.suiteWorkers, nil), designs, "")
	wrap := func(src trace.Source) trace.Source { return &spanSource{Source: src, tr: r.tr} }
	opts := suiteOptions(streams, warmup, r.sz.suiteWorkers, wrap)
	wall, suite, _ := runSuite(r, opts, designs, ref)
	if suite == nil {
		return fmt.Errorf("traced suite run failed")
	}
	warm := r.tr.durations("experiments.warm_pass", time.Second)
	cells := r.tr.durations("experiments.cell", time.Second)
	if len(warm) == 0 || len(cells) == 0 {
		return fmt.Errorf("traced suite recorded %d warm passes and %d cells", len(warm), len(cells))
	}
	busy := 0.0
	for _, d := range append(warm, cells...) {
		busy += d
	}
	r.set("experiments.warm_pass_s", must(median(warm)))
	r.set("experiments.cell_s", must(median(cells)))
	r.set("experiments.pool_busy_frac", busy/(wall.Seconds()*float64(opts.Workers)))
	r.set("experiments.warm_cells", float64(len(cells)))
	r.logf("runner: %d apps x %d designs in %.3f s: %d warm passes (median %.3f s), %d cells (median %.3f s)",
		len(streams), len(designs), wall.Seconds(), len(warm), must(median(warm)), len(cells), must(median(cells)))
	return nil
}

// tenantStreams divides streams into n tenant streams of whole batches:
// the first n when there are enough, otherwise consecutive slices of each.
func tenantStreams(streams []stream, n, batch int) ([]stream, error) {
	if len(streams) >= n {
		return streams[:n], nil
	}
	per := (n + len(streams) - 1) / len(streams)
	var out []stream
	for _, s := range streams {
		size := len(s.recs) / per / batch * batch
		if size == 0 {
			return nil, fmt.Errorf("%s: %d records cannot give %d tenants a batch of %d", s.app.Name, len(s.recs), per, batch)
		}
		for k := 0; k < per && len(out) < n; k++ {
			t := s
			t.recs = s.recs[k*size : (k+1)*size]
			out = append(out, t)
		}
	}
	return out, nil
}

// tracedServe sends one open-loop phase of the workload's records through
// a fresh service and derives the serve layer's costs from its spans.
func tracedServe(r *run, in *inputs) error {
	tenants, err := tenantStreams(in.streams, r.sz.tenants, r.sz.batchRecords)
	if err != nil {
		return err
	}
	l := load{Tenants: len(tenants), Conns: r.sz.conns, Rate: r.sz.tracedRate, For: r.seconds / 4}
	p, h, err := runPhase(r, tenants, l)
	if err != nil {
		return err
	}
	counters := map[string]string{
		"serve.backpressure_total":    "pdede_serve_backpressure_total",
		"serve.duplicate_total":       "pdede_serve_duplicate_batches_total",
		"serve.deadline_misses_total": "pdede_serve_deadline_misses_total",
	}
	for metric, name := range counters {
		v, err := h.counter(name)
		if err != nil {
			h.close()
			return err
		}
		r.set(metric, v)
	}
	r.set("serve.retries_total", float64(h.retries.Load()))
	if err := h.close(); err != nil {
		return err
	}
	reportOpen(r, l.Rate, []*phase{p})

	// Per batch: what the ack took beyond encoding, decoding and applying
	// the batch, which is HTTP, queueing and the reply.
	cost := map[string]time.Duration{}
	for _, name := range []string{"trace.pdt1_encode", "trace.pdt1_decode", "serve.apply"} {
		for _, s := range r.tr.named(name) {
			cost[s.Req] += s.dur()
		}
	}
	var overhead []float64
	for _, s := range r.tr.named("serve.ack") {
		overhead = append(overhead, float64(s.dur()-cost[s.Req])/float64(time.Microsecond))
	}
	r.set("trace.pdt1_encode_us_per_batch", must(median(r.tr.durations("trace.pdt1_encode", time.Microsecond))))
	r.set("trace.pdt1_decode_us_per_batch", must(median(r.tr.durations("trace.pdt1_decode", time.Microsecond))))
	r.set("serve.apply_us_per_batch", must(median(r.tr.durations("serve.apply", time.Microsecond))))
	r.set("serve.ack_us_p50", must(median(r.tr.durations("serve.ack", time.Microsecond))))
	r.set("serve.ack_overhead_us_p50", must(median(overhead)))
	p99, err := percentile(overhead, 0.99)
	if err != nil {
		return err
	}
	r.set("serve.ack_overhead_us_p99", p99)
	lag, err := percentile(r.tr.durations("serve.gen_lag", time.Millisecond), 0.99)
	if err != nil {
		return err
	}
	r.set("serve.gen_lag_ms_p99", lag)
	return nil
}

// hostProbe times a fixed pointer-chasing walk over a table larger than
// the L2, the kind of memory access the simulator's tables make. Its
// spread tells a slow host session from a slow commit; it is a
// diagnostic only, and no metric is divided by it.
type hostProbe struct {
	tab []uint64
	ms  []float64
}

var probeSink uint64

func newHostProbe() *hostProbe {
	p := &hostProbe{tab: make([]uint64, 1<<21)} // 16 MiB
	x := uint64(0x9e3779b97f4a7c15)
	for i := range p.tab {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p.tab[i] = x
	}
	return p
}

func (p *hostProbe) sample(n int) {
	for k := 0; k < n; k++ {
		t0 := time.Now()
		x := uint64(1)
		mask := uint64(len(p.tab) - 1)
		for i := 0; i < 200_000; i++ {
			x = p.tab[x&mask] ^ uint64(i)
		}
		probeSink += x
		p.ms = append(p.ms, float64(time.Since(t0).Nanoseconds())/1e6)
	}
}

// attribution prints the capture path's time per record beside the sum
// of its layers measured alone, and records the residual.
func attribution(r *run, lc *layerCosts) {
	decode := r.metrics["trace.pdtz_decode_ns_per_rec"]
	tage, ras, fetch := lc.perRec(lc.tage), lc.perRec(lc.ras), lc.perRec(lc.fetch)
	r.logf("layer attribution over %d records (ns/record):", lc.records)
	r.logf("  %-20s %7s %7s %7s %7s %7s %8s %8s %9s", "design", "decode", "tage", "ras", "btb", "fetch", "layers", "e2e", "residual")
	for _, d := range coreDesigns {
		btb := lc.perRec(lc.btb[d].t)
		apply := r.metrics["core."+d+".apply_ns_per_rec"]
		layers := decode + tage + ras + btb + fetch
		e2e := decode + apply
		res := e2e - layers
		r.set("core."+d+".residual_ns_per_rec", res)
		r.logf("  %-20s %7.1f %7.1f %7.1f %7.1f %7.1f %8.1f %8.1f %8.1f (%.0f%%)", d, decode, tage, ras, btb, fetch, layers, e2e, res, 100*res/e2e)
	}
	r.logf("BTB layer alone (Lookup+Update, returns skipped):")
	for _, d := range benchDesigns() {
		c := lc.btb[d.Name]
		r.logf("  %-20s %7.1f ns/record %7.1f ns/op  taken hit rate %.4f", d.Name, lc.perRec(c.t), float64(c.t.Nanoseconds())/float64(c.ops), float64(c.takenHits)/float64(c.taken))
	}
	r.logf("tracing overhead on the capture path: %+.1f%%", 100*r.metrics["host.trace_overhead_frac"])
}

package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/trace"
	"repro/internal/workload"
)

// testConfig is a small, fast service configuration shared by the tests:
// a 512-entry baseline BTB and tiny timeouts so failure paths run in
// milliseconds.
func testConfig(t *testing.T) serve.Config {
	t.Helper()
	return serve.Config{
		Design:     experiments.BaselineDesign("baseline-512", 512),
		Workers:    2,
		RetryAfter: time.Millisecond, // floors to a 0s header: tests rely on client backoff
	}
}

func startServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func newTestClient(url string) *client.Client {
	return client.New(client.Options{
		BaseURL:     url,
		Retries:     20,
		BaseBackoff: 2 * time.Millisecond,
		MaxBackoff:  20 * time.Millisecond,
		Seed:        42,
	})
}

// testRecords builds a deterministic synthetic branch stream.
func testRecords(t *testing.T, seed uint64, n int) []isa.Branch {
	t.Helper()
	cfg := workload.Default()
	cfg.Seed = seed
	cfg.StaticBranches = 400
	return buildRecords(t, cfg, n)
}

// buildRecords returns the first n records of cfg's program.
func buildRecords(t *testing.T, cfg workload.Config, n int) []isa.Branch {
	t.Helper()
	_, tr, err := workload.Build(cfg, uint64(n)*12+20_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) < n {
		t.Fatalf("workload built %d records, need %d", len(tr.Records), n)
	}
	return tr.Records[:n]
}

// offlineDigest replays recs through a fresh offline session built from the
// same service config and returns the result digest plus the result.
func offlineDigest(t *testing.T, cfg serve.Config, name string, recs []isa.Branch) (string, core.Result) {
	t.Helper()
	se, err := cfg.NewSession(name)
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < len(recs); {
		n, _, err := se.Apply(recs[pos:])
		if err != nil {
			t.Fatal(err)
		}
		pos += n
	}
	snap := se.Snapshot()
	return serve.ResultDigest(&snap), snap
}

// encodeBatch serializes records the way the client does, for raw HTTP
// tests that bypass the client package.
func encodeBatch(t *testing.T, name string, recs []isa.Branch) []byte {
	t.Helper()
	var buf bytes.Buffer
	src := &trace.Memory{TraceName: name, Records: recs}
	if err := trace.Write(&buf, name, src.Open()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBatchStreamMatchesOffline is the core served-vs-offline contract:
// streaming a trace in batches through HTTP must produce bit-identical
// rolling results to an offline core.Session replay.
func TestBatchStreamMatchesOffline(t *testing.T) {
	cfg := testConfig(t)
	_, ts := startServer(t, cfg)
	c := newTestClient(ts.URL)
	recs := testRecords(t, 1, 3000)

	var last *serve.BatchAck
	const batch = 500
	for seq, pos := uint64(1), 0; pos < len(recs); seq++ {
		end := pos + batch
		if end > len(recs) {
			end = len(recs)
		}
		ack, err := c.SendBatch(context.Background(), "alpha", seq, recs[pos:end])
		if err != nil {
			t.Fatalf("batch %d: %v", seq, err)
		}
		if ack.Records != end-pos {
			t.Fatalf("batch %d applied %d records, want %d", seq, ack.Records, end-pos)
		}
		last = ack
		pos = end
	}
	wantDigest, want := offlineDigest(t, cfg, "alpha", recs)
	if last.Digest != wantDigest {
		t.Errorf("served digest %s != offline %s", last.Digest, wantDigest)
	}
	if last.TotalRecords != uint64(len(recs)) {
		t.Errorf("TotalRecords = %d, want %d", last.TotalRecords, len(recs))
	}
	if last.MPKI != want.BTBMPKI() || last.IPC != want.IPC() {
		t.Errorf("rolling metrics diverge: got (%g, %g), want (%g, %g)",
			last.MPKI, last.IPC, want.BTBMPKI(), want.IPC())
	}

	st, err := c.Stats(context.Background(), "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if st.Digest != wantDigest || st.NextSeq != last.Seq+1 {
		t.Errorf("stats = %+v, want digest %s next_seq %d", st, wantDigest, last.Seq+1)
	}
}

// TestExactlyOnce resends an applied batch and checks it is acknowledged
// from cache without re-training the simulator.
func TestExactlyOnce(t *testing.T) {
	cfg := testConfig(t)
	_, ts := startServer(t, cfg)
	c := newTestClient(ts.URL)
	recs := testRecords(t, 2, 400)

	first, err := c.SendBatch(context.Background(), "dup", 1, recs[:200])
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.SendBatch(context.Background(), "dup", 1, recs[:200])
	if err != nil {
		t.Fatal(err)
	}
	if !again.Duplicate || again.Records != 0 {
		t.Fatalf("retransmit not detected: %+v", again)
	}
	if again.Digest != first.Digest || again.TotalRecords != first.TotalRecords {
		t.Errorf("duplicate ack carries different state: %+v vs %+v", again, first)
	}
	second, err := c.SendBatch(context.Background(), "dup", 2, recs[200:])
	if err != nil {
		t.Fatal(err)
	}
	wantDigest, _ := offlineDigest(t, cfg, "dup", recs)
	if second.Digest != wantDigest {
		t.Errorf("digest after retransmit %s != offline %s (double-applied?)", second.Digest, wantDigest)
	}
}

// TestGapRejected: skipping ahead must be a terminal ordering error.
func TestGapRejected(t *testing.T) {
	_, ts := startServer(t, testConfig(t))
	c := newTestClient(ts.URL)
	recs := testRecords(t, 3, 100)
	_, err := c.SendBatch(context.Background(), "gappy", 5, recs)
	var se *client.Err
	if !errors.As(err, &se) || se.Body.Code != serve.CodeGap || se.Body.Retryable {
		t.Fatalf("err = %v, want non-retryable %s", err, serve.CodeGap)
	}
}

// TestPanicIsolationAndQuarantine injects simulator panics for one tenant
// and checks: the crash is contained (other tenants unaffected), the
// crashed batch is never applied, state rebuilds from the journal, and the
// tenant quarantines after the configured crash count.
func TestPanicIsolationAndQuarantine(t *testing.T) {
	cfg := testConfig(t)
	cfg.QuarantineAfter = 2
	cfg.ApplyHook = func(tenant string, seq uint64) {
		if tenant == "victim" && seq == 2 {
			panic("injected simulator bug")
		}
	}
	_, ts := startServer(t, cfg)
	c := newTestClient(ts.URL)
	recs := testRecords(t, 4, 600)

	if _, err := c.SendBatch(context.Background(), "victim", 1, recs[:200]); err != nil {
		t.Fatal(err)
	}
	// First crash: contained, not applied, not retryable.
	_, err := c.SendBatch(context.Background(), "victim", 2, recs[200:400])
	var se *client.Err
	if !errors.As(err, &se) || se.Body.Code != serve.CodeCrashed {
		t.Fatalf("err = %v, want %s", err, serve.CodeCrashed)
	}
	// The bystander tenant is untouched by the victim's crash.
	if _, err := c.SendBatch(context.Background(), "bystander", 1, recs[:200]); err != nil {
		t.Fatalf("crash leaked across tenants: %v", err)
	}
	// The victim's state survived: batch 1 is still there, rebuilt from
	// the journal, bit-identical to an offline replay.
	st, err := c.Stats(context.Background(), "victim")
	if err != nil {
		t.Fatal(err)
	}
	wantDigest, _ := offlineDigest(t, cfg, "victim", recs[:200])
	if st.Digest != wantDigest || st.NextSeq != 2 || st.Crashes != 1 {
		t.Errorf("post-crash stats %+v, want digest %s next_seq 2 crashes 1", st, wantDigest)
	}
	// Second crash trips quarantine; further batches are refused.
	if _, err := c.SendBatch(context.Background(), "victim", 2, recs[200:400]); err == nil {
		t.Fatal("second crash not reported")
	}
	_, err = c.SendBatch(context.Background(), "victim", 2, recs[400:600])
	if !errors.As(err, &se) || se.Body.Code != serve.CodeQuarantined || se.Body.Retryable {
		t.Fatalf("err = %v, want non-retryable %s", err, serve.CodeQuarantined)
	}
}

// TestTruncatedUploadRetries injects a mid-stream truncation into the
// first attempt's body; the server must apply nothing, answer a retryable
// error, and the clean retry must succeed with unchanged results.
func TestTruncatedUploadRetries(t *testing.T) {
	cfg := testConfig(t)
	_, ts := startServer(t, cfg)
	recs := testRecords(t, 5, 300)
	c := client.New(client.Options{
		BaseURL:     ts.URL,
		Retries:     5,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  5 * time.Millisecond,
		Seed:        7,
		Fault: func(tenant string, seq uint64, attempt int) trace.FaultPlan {
			if attempt == 0 {
				return trace.FaultPlan{TruncateAt: 50}
			}
			return trace.FaultPlan{}
		},
	})
	ack, err := c.SendBatch(context.Background(), "chopped", 1, recs)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Duplicate {
		t.Error("truncated attempt must not have applied")
	}
	wantDigest, _ := offlineDigest(t, cfg, "chopped", recs)
	if ack.Digest != wantDigest {
		t.Errorf("digest %s != offline %s", ack.Digest, wantDigest)
	}
}

// TestBackpressure fills the single worker and its depth-1 queue, then
// checks the next batch is refused with 429 + Retry-After instead of
// queueing unboundedly.
func TestBackpressure(t *testing.T) {
	var gate atomic.Bool
	cfg := testConfig(t)
	cfg.Workers = 1
	cfg.QueueDepth = 1
	cfg.ApplyHook = func(string, uint64) {
		for gate.Load() {
			time.Sleep(time.Millisecond)
		}
	}
	gate.Store(true)
	_, ts := startServer(t, cfg)
	recs := testRecords(t, 6, 50)

	post := func(tenant string) *http.Response {
		body := encodeBatch(t, tenant, recs)
		resp, err := http.Post(
			fmt.Sprintf("%s/v1/tenants/%s/batches/1", ts.URL, tenant),
			"application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	// First batch occupies the worker; second fills the queue.
	done := make(chan *http.Response, 2)
	go func() { done <- post("w1") }()
	time.Sleep(50 * time.Millisecond)
	go func() { done <- post("w2") }()
	time.Sleep(50 * time.Millisecond)

	resp := post("w3")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get(serve.RetryAfterHeader) == "" {
		t.Error("429 without a Retry-After hint")
	}
	gate.Store(false)
	for i := 0; i < 2; i++ {
		r := <-done
		if r.StatusCode != http.StatusOK {
			t.Errorf("queued batch finished with %d, want 200", r.StatusCode)
		}
		r.Body.Close()
	}
}

// TestOneQueuedBatchPerTenant: a tenant has at most one batch queued. The
// single worker is held by another tenant's batch while tenant x's batch 2
// waits in the queue. Batch 3 is refused with backpressure (429 +
// Retry-After), a resend of batch 2 is pending (409, retryable) and batch
// 4 skips ahead (409 gap). Once the worker is released, batch 2 is acked,
// and a retried batch 3 applies with the exact record total.
func TestOneQueuedBatchPerTenant(t *testing.T) {
	const batchRecs = 50
	held, release := make(chan struct{}), make(chan struct{})
	cfg := testConfig(t)
	cfg.Workers = 1
	// A request waits at most this long, so a batch wrongly admitted
	// behind the held worker fails the test instead of hanging it.
	cfg.RequestTimeout = 10 * time.Second
	cfg.ApplyHook = func(tenant string, _ uint64) {
		if tenant == "holder" {
			close(held)
			<-release
		}
	}
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var releaseOnce sync.Once
	releaseWorker := func() { releaseOnce.Do(func() { close(release) }) }
	defer releaseWorker()

	h := s.Handler()
	recs := testRecords(t, 33, 4*batchRecs)
	// bodies[seq] is x's batch seq; the holder sends x's batch 1 as its own.
	bodies := make([][]byte, 5)
	for seq := 1; seq <= 4; seq++ {
		bodies[seq] = encodeBatch(t, "x", recs[(seq-1)*batchRecs:seq*batchRecs])
	}
	post := func(tenant string, seq int) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost,
			fmt.Sprintf("/v1/tenants/%s/batches/%d", tenant, seq), bytes.NewReader(bodies[seq])))
		return rec
	}
	async := func(tenant string, seq int) <-chan *httptest.ResponseRecorder {
		ch := make(chan *httptest.ResponseRecorder, 1)
		go func() { ch <- post(tenant, seq) }()
		return ch
	}
	ack := func(rec *httptest.ResponseRecorder, what string, total int) serve.BatchAck {
		t.Helper()
		var a serve.BatchAck
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", what, rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &a); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if a.Duplicate || a.Records != batchRecs || a.TotalRecords != uint64(total) {
			t.Errorf("%s: ack %+v, want %d new records, %d in all", what, a, batchRecs, total)
		}
		return a
	}
	refused := func(rec *httptest.ResponseRecorder, what string, status int, code string, retryable bool) {
		t.Helper()
		var eb serve.ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || rec.Code != status ||
			eb.Code != code || eb.Retryable != retryable {
			t.Fatalf("%s: %d %s, want %d %s (retryable %v)", what, rec.Code, rec.Body, status, code, retryable)
		}
	}

	ack(post("x", 1), "batch 1", batchRecs)
	holder := async("holder", 1)
	<-held
	queued := async("x", 2)
	// Batch 3 skips ahead until batch 2 is queued.
	rec := post("x", 3)
	for deadline := time.Now().Add(10 * time.Second); rec.Code == http.StatusConflict &&
		strings.Contains(rec.Body.String(), serve.CodeGap) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		rec = post("x", 3)
	}
	refused(rec, "batch 3", http.StatusTooManyRequests, serve.CodeBackpressure, true)
	if rec.Header().Get(serve.RetryAfterHeader) == "" {
		t.Error("429 without a Retry-After hint")
	}
	refused(post("x", 2), "resent batch 2", http.StatusConflict, serve.CodePending, true)
	refused(post("x", 4), "batch 4", http.StatusConflict, serve.CodeGap, false)

	releaseWorker()
	if rec := <-holder; rec.Code != http.StatusOK {
		t.Errorf("holder: %d %s", rec.Code, rec.Body)
	}
	ack(<-queued, "queued batch 2", 2*batchRecs)
	last := ack(post("x", 3), "retried batch 3", 3*batchRecs)
	if want, _ := offlineDigest(t, cfg, "x", recs[:3*batchRecs]); last.Digest != want {
		t.Errorf("digest %s != offline %s", last.Digest, want)
	}
}

// TestMetricsDuringApply: /metrics answers while the only worker is inside
// a tenant's batch, which holds that tenant's lock for the whole simulator
// step. The scrape lists both tenants, the applying one as it stood
// before the batch with the batch pending; once the batch applies, its
// gauges move on.
func TestMetricsDuringApply(t *testing.T) {
	const batchRecs = 50
	held, release := make(chan struct{}), make(chan struct{})
	cfg := testConfig(t)
	cfg.Workers = 1
	cfg.ApplyHook = func(tenant string, seq uint64) {
		if tenant == "a" && seq == 2 {
			close(held)
			<-release
		}
	}
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var releaseOnce sync.Once
	releaseWorker := func() { releaseOnce.Do(func() { close(release) }) }
	defer releaseWorker()

	h := s.Handler()
	recs := testRecords(t, 35, 2*batchRecs)
	post := func(tenant string, seq int) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		body := encodeBatch(t, tenant, recs[(seq-1)*batchRecs:seq*batchRecs])
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost,
			fmt.Sprintf("/v1/tenants/%s/batches/%d", tenant, seq), bytes.NewReader(body)))
		return rec
	}
	metrics := func() string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		return rec.Body.String()
	}
	gauge := func(body, name string, want float64) {
		t.Helper()
		if got, ok := tenantGauge(body, name, "a"); !ok || got != want {
			t.Errorf("%s{tenant=\"a\"} = %v (present %v), want %v\n%s", name, got, ok, want, body)
		}
	}

	for _, name := range []string{"b", "a"} {
		if rec := post(name, 1); rec.Code != http.StatusOK {
			t.Fatalf("%s batch 1: %d %s", name, rec.Code, rec.Body)
		}
	}
	applying := make(chan *httptest.ResponseRecorder, 1)
	go func() { applying <- post("a", 2) }()
	<-held

	scraped := make(chan string, 1)
	go func() { scraped <- metrics() }()
	select {
	case body := <-scraped:
		if got := tenantLabels(body, "pdede_serve_tenant_next_seq"); !slices.Equal(got, []string{"a", "b"}) {
			t.Errorf("/metrics lists tenants %v, want [a b]\n%s", got, body)
		}
		gauge(body, "pdede_serve_tenant_next_seq", 2)
		gauge(body, "pdede_serve_tenant_pending", 1)
	case <-time.After(time.Second):
		t.Fatal("/metrics did not answer within 1s while tenant a's batch applied")
	}

	releaseWorker()
	if rec := <-applying; rec.Code != http.StatusOK {
		t.Fatalf("a batch 2: %d %s", rec.Code, rec.Body)
	}
	body := metrics()
	gauge(body, "pdede_serve_tenant_next_seq", 3)
	gauge(body, "pdede_serve_tenant_pending", 0)
}

// TestDeadlineThenDuplicate: a slow apply misses the request deadline
// (504, retryable); the retry of the same sequence number is acknowledged
// as a duplicate once the batch lands.
func TestDeadlineThenDuplicate(t *testing.T) {
	cfg := testConfig(t)
	cfg.RequestTimeout = 20 * time.Millisecond
	var slow atomic.Bool
	slow.Store(true)
	cfg.ApplyHook = func(string, uint64) {
		if slow.CompareAndSwap(true, false) {
			time.Sleep(80 * time.Millisecond)
		}
	}
	_, ts := startServer(t, cfg)
	c := client.New(client.Options{
		BaseURL:     ts.URL,
		Retries:     20,
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  40 * time.Millisecond,
		Seed:        9,
	})
	recs := testRecords(t, 7, 200)
	ack, err := c.SendBatch(context.Background(), "tardy", 1, recs)
	if err != nil {
		t.Fatal(err)
	}
	if !ack.Duplicate {
		t.Log("note: first attempt won the race; duplicate path not exercised this run")
	}
	if ack.TotalRecords != uint64(len(recs)) {
		t.Errorf("TotalRecords = %d, want %d (batch lost or double-applied)", ack.TotalRecords, len(recs))
	}
	wantDigest, _ := offlineDigest(t, cfg, "tardy", recs)
	st, err := c.Stats(context.Background(), "tardy")
	if err != nil {
		t.Fatal(err)
	}
	if st.Digest != wantDigest {
		t.Errorf("digest %s != offline %s", st.Digest, wantDigest)
	}
}

// TestShedAndRestore drives more tenants than the resident cap allows and
// checks idle state is checkpointed out, restored on demand, and still
// bit-identical to offline replay afterwards.
func TestShedAndRestore(t *testing.T) {
	cfg := testConfig(t)
	cfg.Workers = 1
	cfg.MaxResidentTenants = 2
	cfg.CheckpointDir = t.TempDir()
	_, ts := startServer(t, cfg)
	c := newTestClient(ts.URL)

	tenants := []string{"s-a", "s-b", "s-c", "s-d"}
	perTenant := make(map[string][]isa.Branch)
	for i, name := range tenants {
		perTenant[name] = testRecords(t, uint64(100+i), 400)
	}
	for _, name := range tenants {
		if _, err := c.SendBatch(context.Background(), name, 1, perTenant[name][:200]); err != nil {
			t.Fatalf("%s batch 1: %v", name, err)
		}
	}
	// A second round touches every tenant again: the ones shed in between
	// must restore from checkpoint transparently.
	for _, name := range tenants {
		ack, err := c.SendBatch(context.Background(), name, 2, perTenant[name][200:])
		if err != nil {
			t.Fatalf("%s batch 2: %v", name, err)
		}
		wantDigest, _ := offlineDigest(t, cfg, name, perTenant[name])
		if ack.Digest != wantDigest {
			t.Errorf("%s digest %s != offline %s after shed/restore", name, ack.Digest, wantDigest)
		}
	}
	body := scrape(t, ts.URL)
	for _, metric := range []string{"pdede_serve_tenants_shed_total", "pdede_serve_tenants_restored_total"} {
		if !metricAtLeast(body, metric, 1) {
			t.Errorf("expected %s >= 1 with a resident cap of 2 and 4 tenants\n%s", metric, body)
		}
	}
	// A shed tenant's journal is on disk, not in memory; a resident one
	// holds its 400 records.
	for _, name := range tenants {
		_, resident := tenantGauge(body, "pdede_serve_tenant_mpki", name)
		size, ok := tenantGauge(body, "pdede_serve_tenant_journal_bytes", name)
		if !ok || resident != (size > 0) {
			t.Errorf("%s: journal gauge %g (reported %v) with resident %v\n%s", name, size, ok, resident, body)
		}
	}
}

// scrape returns the server's /metrics text.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return buf.String()
}

// tenantGauge parses one per-tenant gauge line out of the exposition.
func tenantGauge(body, name, tenant string) (float64, bool) {
	prefix := fmt.Sprintf("%s{tenant=%q} ", name, tenant)
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			f, err := strconv.ParseFloat(v, 64)
			return f, err == nil
		}
	}
	return 0, false
}

// tenantLabels lists the tenant label of each line of one per-tenant
// gauge, in exposition order.
func tenantLabels(body, name string) []string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+"{tenant="); ok {
			if q, err := strconv.QuotedPrefix(rest); err == nil {
				tenant, _ := strconv.Unquote(q)
				out = append(out, tenant)
			}
		}
	}
	return out
}

// TestJournalBytesPerRecord bounds what a tenant's journal holds per record
// on the benchmark's serve-stream shape: 64 batches of 256 records from a
// 300-branch synthetic program. The journal keeps each record's PDT1
// delta encoding, not a 24-byte isa.Branch, and its gauge reports the
// journal's whole array: the records and the slack their appends left.
func TestJournalBytesPerRecord(t *testing.T) {
	const batches, batchRecs = 64, 256
	_, ts := startServer(t, testConfig(t))
	c := newTestClient(ts.URL)
	cfg := workload.Default()
	cfg.StaticBranches = 300
	recs := buildRecords(t, cfg, batches*batchRecs)
	for seq := uint64(1); seq <= batches; seq++ {
		batch := recs[(seq-1)*batchRecs : seq*batchRecs]
		if _, err := c.SendBatch(context.Background(), "compact", seq, batch); err != nil {
			t.Fatalf("batch %d: %v", seq, err)
		}
	}
	body := scrape(t, ts.URL)
	got, ok := tenantGauge(body, "pdede_serve_tenant_journal_bytes", "compact")
	if !ok {
		t.Fatalf("no journal gauge for tenant compact\n%s", body)
	}
	perRec := got / (batches * batchRecs)
	recBytes := float64(len(encodeBatch(t, "compact", recs)) - len(encodeBatch(t, "compact", nil)))
	t.Logf("journal: %.0f B array for %.0f B of records, %.2f B/record", got, recBytes, perRec)
	if perRec > 8 {
		t.Errorf("journal holds %.2f B/record, want at most 8", perRec)
	}
	if got <= recBytes || got > 2*recBytes {
		t.Errorf("journal gauge reads %.0f B for %.0f B of records; want its array's size, above the records' and within twice them", got, recBytes)
	}
}

// metricAtLeast parses one un-labelled counter line out of the exposition.
func metricAtLeast(body, name string, min int) bool {
	for _, line := range strings.Split(body, "\n") {
		var v int
		if _, err := fmt.Sscanf(line, name+" %d", &v); err == nil {
			return v >= min
		}
	}
	return false
}

// TestConfigDigestGuardsCheckpoints: a server with a different design must
// refuse another server's checkpoints instead of replaying a journal into
// the wrong simulator.
func TestConfigDigestGuardsCheckpoints(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t)
	cfg.CheckpointDir = dir
	s1, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	c := newTestClient(ts1.URL)
	recs := testRecords(t, 8, 200)
	if _, err := c.SendBatch(context.Background(), "pinned", 1, recs); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	other := testConfig(t)
	other.Design = experiments.BaselineDesign("baseline-1024", 1024)
	other.CheckpointDir = dir
	_, ts2 := startServer(t, other)
	c2 := newTestClient(ts2.URL)
	_, err = c2.SendBatch(context.Background(), "pinned", 2, recs)
	var se *client.Err
	if !errors.As(err, &se) || se.Body.Code != serve.CodeCheckpoint || se.Body.Retryable {
		t.Fatalf("err = %v, want non-retryable %s", err, serve.CodeCheckpoint)
	}
}

// TestBadRequests pins the validation surface. A refused request leaves
// no state, so it must leave no tenant in /metrics either.
func TestBadRequests(t *testing.T) {
	_, ts := startServer(t, testConfig(t))
	recs := testRecords(t, 9, 20)
	body := encodeBatch(t, "x", recs)
	cases := []struct {
		name string
		url  string
		body []byte
		want int
	}{
		{"bad tenant", "/v1/tenants/..sneaky/batches/1", body, http.StatusBadRequest},
		{"bad seq", "/v1/tenants/ok/batches/zero", body, http.StatusBadRequest},
		{"seq zero", "/v1/tenants/ok/batches/0", body, http.StatusBadRequest},
		{"empty body", "/v1/tenants/ok/batches/1", nil, http.StatusBadRequest},
		{"garbage body", "/v1/tenants/ok/batches/1", []byte("not a trace"), http.StatusBadRequest},
		{"gap on a new tenant", "/v1/tenants/ghost-gap/batches/2", body, http.StatusConflict},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+tc.url, "application/octet-stream", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
	// An unknown tenant has no stats.
	resp, err := http.Get(ts.URL + "/v1/tenants/ghost/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("stats for unknown tenant: %d, want 404", resp.StatusCode)
	}
	if body := scrape(t, ts.URL); strings.Contains(body, "ghost") {
		t.Errorf("refused requests left tenants behind:\n%s", body)
	}
}

// TestHealthEndpoints checks liveness vs readiness split across drain.
func TestHealthEndpoints(t *testing.T) {
	s, ts := startServer(t, testConfig(t))
	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("healthz = %d", got)
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Errorf("readyz = %d", got)
	}
	s.BeginDrain()
	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("healthz while draining = %d, want 200 (still alive)", got)
	}
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining = %d, want 503", got)
	}
	recs := testRecords(t, 10, 20)
	resp, err := http.Post(ts.URL+"/v1/tenants/late/batches/1",
		"application/octet-stream", bytes.NewReader(encodeBatch(t, "late", recs)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("batch while draining = %d, want 503", resp.StatusCode)
	}
}

// TestBlockBelowZeroIsAcked: a PDT1 batch whose last record claims a block
// starting below address 0 (PC 0x40, 100 instructions) passes decoding, is
// applied and acked, and leaves the tenant's digest equal to an offline
// replay. Such a block used to wrap to the top of the address space and
// spin its worker for good, holding the tenant's lock. The server runs on
// its own goroutine so that a wedged worker fails the deadline instead of
// hanging the test in Close.
func TestBlockBelowZeroIsAcked(t *testing.T) {
	cfg := testConfig(t)
	recs := append(testRecords(t, 3, 200),
		isa.Branch{PC: 0x40, Target: 0x1000, BlockLen: 100, Kind: isa.CondDirect, Taken: true})
	type outcome struct {
		ack *serve.BatchAck
		st  *serve.TenantStats
		err error
	}
	run := func() (o outcome) {
		s, err := serve.New(cfg)
		if err != nil {
			return outcome{err: err}
		}
		ts := httptest.NewServer(s.Handler())
		defer func() {
			ts.Close()
			s.Close()
		}()
		c := newTestClient(ts.URL)
		if o.ack, o.err = c.SendBatch(context.Background(), "wrapped", 1, recs); o.err == nil {
			o.st, o.err = c.Stats(context.Background(), "wrapped")
		}
		return o
	}
	done := make(chan outcome, 1)
	go func() { done <- run() }()
	var o outcome
	select {
	case o = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a batch with a block starting below address 0 was not acked in 10 s")
	}
	if o.err != nil {
		t.Fatal(o.err)
	}
	if o.ack.Records != len(recs) {
		t.Errorf("ack applied %d records, want %d", o.ack.Records, len(recs))
	}
	if wantDigest, _ := offlineDigest(t, cfg, "wrapped", recs); o.st.Digest != wantDigest {
		t.Errorf("digest %s != offline %s", o.st.Digest, wantDigest)
	}
}

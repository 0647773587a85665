package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/serve"
)

// TestConcurrentHandlers is the race witness for the state pdede-serve's
// handlers share under its server and tenant mutexes. It calls the
// handlers in-process, through ServeHTTP and httptest.NewRecorder: over a
// loopback socket, -race counts every socket write and its read as a
// synchronization, which orders the very accesses a missing lock leaves
// racing.
//
// Writers stream batches for more tenants than the resident cap holds,
// taking up new tenants throughout the run, so a new tenant's map insert
// overlaps shed sweeps, and shed tenants restore from their checkpoints.
// The writer phase runs twice, the second streaming each tenant's next
// batches, because a shed sweep meets a tenant whose batch was just
// applied too rarely in one phase. Readers loop on /metrics, /readyz and
// the stats of the tenants being written, and keep looping while Close
// drains the server and checkpoints every tenant. Under -race, a field
// read or written outside its mutex fails the run. Without -race, every
// batch must still be acked and every tenant's final digest must equal an
// offline replay.
func TestConcurrentHandlers(t *testing.T) {
	const (
		tenants   = 64
		phases    = 2
		batches   = 4 // per tenant and phase
		batchRecs = 64
		writers   = 2
		attempts  = 200 // per batch; only retryable refusals are retried
	)
	cfg := testConfig(t)
	cfg.MaxResidentTenants = 4
	cfg.CheckpointDir = t.TempDir()
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	serveHTTP := func(method, target string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
		return rec
	}

	name := func(i int) string { return fmt.Sprintf("race-%02d", i) }
	const perTenant = phases * batches * batchRecs
	recs := testRecords(t, 29, tenants*perTenant)
	tenantRecs := func(i int) []isa.Branch { return recs[i*perTenant : (i+1)*perTenant] }
	bodies := make([][][]byte, tenants)
	for i := range bodies {
		for b := 0; b < phases*batches; b++ {
			bodies[i] = append(bodies[i], encodeBatch(t, name(i), tenantRecs(i)[b*batchRecs:(b+1)*batchRecs]))
		}
	}

	// errs keeps the first few failures; the goroutines never block on it.
	errs := make(chan error, 16)
	fail := func(format string, args ...any) {
		select {
		case errs <- fmt.Errorf(format, args...):
		default:
		}
	}

	// post sends batch seq of tenant i until it is acked.
	post := func(i, seq int) (ack serve.BatchAck, ok bool) {
		target := fmt.Sprintf("/v1/tenants/%s/batches/%d", name(i), seq)
		for a := 0; a < attempts; a++ {
			rec := serveHTTP(http.MethodPost, target, bodies[i][seq-1])
			if rec.Code == http.StatusOK {
				if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
					fail("%s: ack: %v", target, err)
					return ack, false
				}
				return ack, true
			}
			var eb serve.ErrorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || !eb.Retryable {
				fail("%s: %d %s", target, rec.Code, rec.Body)
				return ack, false
			}
			time.Sleep(time.Millisecond)
		}
		fail("%s: not acked in %d attempts", target, attempts)
		return ack, false
	}

	// next is the next tenant a writer takes up in this phase; readers
	// query the stats of the tenants taken so far.
	var next atomic.Int64

	stop := make(chan struct{})
	var rs sync.WaitGroup
	read := func(target func(k int) string, codes ...int) {
		rs.Add(1)
		go func() {
			defer rs.Done()
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				tg := target(k)
				rec := serveHTTP(http.MethodGet, tg, nil)
				if !slices.Contains(codes, rec.Code) {
					fail("GET %s: %d %s", tg, rec.Code, rec.Body)
				}
			}
		}()
	}
	read(func(int) string { return "/metrics" }, http.StatusOK)
	read(func(int) string { return "/readyz" }, http.StatusOK, http.StatusServiceUnavailable)
	read(func(k int) string {
		return "/v1/tenants/" + name(k%int(min(max(next.Load(), 1), tenants))) + "/stats"
	}, http.StatusOK, http.StatusNotFound, http.StatusServiceUnavailable)

	finals := make([]serve.BatchAck, tenants)
	for phase := 0; phase < phases; phase++ {
		next.Store(0)
		var ws sync.WaitGroup
		for w := 0; w < writers; w++ {
			ws.Add(1)
			go func() {
				defer ws.Done()
				for i := int(next.Add(1) - 1); i < tenants; i = int(next.Add(1) - 1) {
					for seq := phase*batches + 1; seq <= (phase+1)*batches; seq++ {
						ack, ok := post(i, seq)
						if !ok {
							return
						}
						if ack.TotalRecords != uint64(seq*batchRecs) {
							fail("%s batch %d: TotalRecords %d, want %d", name(i), seq, ack.TotalRecords, seq*batchRecs)
						}
						finals[i] = ack
					}
				}
			}()
		}
		ws.Wait()
	}

	// A shed writes fsynced checkpoint files, so on a slow disk the sweeps
	// lag the writers and the tenants shed last may see no request before
	// the drain. Until one restores, request every tenant's stats while
	// the readers keep looping.
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline) &&
		!metricAtLeast(serveHTTP(http.MethodGet, "/metrics", nil).Body.String(), "pdede_serve_tenants_restored_total", 1); {
		for i := 0; i < tenants; i++ {
			serveHTTP(http.MethodGet, "/v1/tenants/"+name(i)+"/stats", nil)
		}
	}
	if err := s.Close(); err != nil {
		t.Error(err)
	}
	close(stop)
	rs.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	for i := 0; i < tenants; i++ {
		if want, _ := offlineDigest(t, cfg, name(i), tenantRecs(i)); finals[i].Digest != want {
			t.Errorf("%s: final digest %s != offline %s", name(i), finals[i].Digest, want)
		}
	}
	body := serveHTTP(http.MethodGet, "/metrics", nil).Body.String()
	for _, metric := range []string{"pdede_serve_tenants_shed_total", "pdede_serve_tenants_restored_total"} {
		if !metricAtLeast(body, metric, 1) {
			t.Errorf("%s is 0: the run did not shed and restore tenants\n%s", metric, body)
		}
	}
	// The tenant map's iteration order must not reach the exposition.
	if got := tenantLabels(body, "pdede_serve_tenant_next_seq"); len(got) != tenants || !slices.IsSorted(got) {
		t.Errorf("/metrics lists %d tenants, want all %d in name order: %v", len(got), tenants, got)
	}
}

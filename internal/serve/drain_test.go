package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/serve"
	"repro/internal/serve/client"
)

// TestDrainCheckpointRestart is the graceful-shutdown contract under live
// traffic: mid-stream, the server drains (as the SIGTERM handler in
// cmd/pdede-serve does — BeginDrain then Close), checkpoints every tenant,
// and a fresh server on the same checkpoint directory picks the streams
// back up. Clients just retry through the outage. At the end every
// tenant's rolling state must be bit-identical to an offline replay —
// which a lost batch, a double-applied batch, or any metric gap would
// break — and TotalRecords must be exact.
func TestDrainCheckpointRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t)
	cfg.CheckpointDir = dir
	cfg.Workers = 2

	// front proxies to whichever server generation is current, so clients
	// keep one URL across the restart. The pre-restart pointer serves 503
	// draining, which clients treat as retryable.
	var front atomic.Pointer[serve.Server]
	s1, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	front.Store(s1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		front.Load().Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()

	const (
		tenants   = 6
		batches   = 4
		batchRecs = 200
	)
	perTenant := make([][]isa.Branch, tenants)
	for i := range perTenant {
		perTenant[i] = testRecords(t, uint64(500+i), batches*batchRecs)
	}

	// Restart once, after roughly half the total batches have been acked.
	var (
		acked       atomic.Int64
		restartOnce sync.Once
		restarted   = make(chan struct{})
	)
	maybeRestart := func() {
		if acked.Load() < tenants*batches/2 {
			return
		}
		restartOnce.Do(func() {
			// BeginDrain is what the daemon's SIGTERM handler calls; Close
			// finishes the drain and checkpoints every tenant.
			s1.BeginDrain()
			if err := s1.Close(); err != nil {
				t.Errorf("drain: %v", err)
			}
			s2, err := serve.New(cfg)
			if err != nil {
				t.Errorf("restart: %v", err)
				close(restarted)
				return
			}
			front.Store(s2)
			t.Cleanup(func() { s2.Close() })
			close(restarted)
		})
	}

	var wg sync.WaitGroup
	errs := make(chan error, tenants)
	finals := make([]*serve.BatchAck, tenants)
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("drain-%02d", i)
			c := client.New(client.Options{
				BaseURL:     ts.URL,
				Retries:     60,
				BaseBackoff: 2 * time.Millisecond,
				MaxBackoff:  25 * time.Millisecond,
				Seed:        uint64(i),
			})
			for b := 0; b < batches; b++ {
				recs := perTenant[i][b*batchRecs : (b+1)*batchRecs]
				ack, err := c.SendBatch(context.Background(), name, uint64(b+1), recs)
				if err != nil {
					errs <- fmt.Errorf("%s batch %d: %w", name, b+1, err)
					return
				}
				want := uint64((b + 1) * batchRecs)
				if ack.TotalRecords != want {
					errs <- fmt.Errorf("%s batch %d: TotalRecords %d, want %d (lost or double-applied)",
						name, b+1, ack.TotalRecords, want)
					return
				}
				finals[i] = ack
				acked.Add(1)
				maybeRestart()
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	select {
	case <-restarted:
	default:
		t.Fatal("restart never triggered; test did not exercise the drain path")
	}
	if t.Failed() {
		return
	}

	// Every stream must have crossed the restart with no gap and no
	// replay: the final rolling state equals a clean offline replay.
	c := newTestClient(ts.URL)
	for i := 0; i < tenants; i++ {
		name := fmt.Sprintf("drain-%02d", i)
		wantDigest, want := offlineDigest(t, cfg, name, perTenant[i])
		if finals[i].Digest != wantDigest {
			t.Errorf("%s: final digest %s != offline %s", name, finals[i].Digest, wantDigest)
		}
		if finals[i].MPKI != want.BTBMPKI() || finals[i].IPC != want.IPC() {
			t.Errorf("%s: rolling metrics (%g, %g) != offline (%g, %g)",
				name, finals[i].MPKI, finals[i].IPC, want.BTBMPKI(), want.IPC())
		}
		st, err := c.Stats(context.Background(), name)
		if err != nil {
			t.Errorf("%s: stats: %v", name, err)
			continue
		}
		if st.Digest != wantDigest || st.TotalRecords != uint64(batches*batchRecs) {
			t.Errorf("%s: post-restart stats %+v, want digest %s records %d",
				name, st, wantDigest, batches*batchRecs)
		}
	}
}

// TestCloseCheckpointsIdleTenants: tenants that received traffic but are
// idle at shutdown must still be durably checkpointed by Close, and a
// restarted server restores each one on its first request, a stats query
// or its next batch.
func TestCloseCheckpointsIdleTenants(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t)
	cfg.CheckpointDir = dir

	s1, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	c := newTestClient(ts1.URL)
	recs := testRecords(t, 11, 300)
	ack1, err := c.SendBatch(context.Background(), "idle", 1, recs[:150])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SendBatch(context.Background(), "idle-b", 1, recs[:150]); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := startServer(t, cfg)
	c2 := newTestClient(ts2.URL)
	st, err := c2.Stats(context.Background(), "idle")
	if err != nil {
		t.Fatalf("state lost across restart: %v", err)
	}
	if st.Digest != ack1.Digest || st.NextSeq != 2 {
		t.Fatalf("restored stats %+v, want digest %s next_seq 2", st, ack1.Digest)
	}
	ack2, err := c2.SendBatch(context.Background(), "idle", 2, recs[150:])
	if err != nil {
		t.Fatal(err)
	}
	wantDigest, _ := offlineDigest(t, cfg, "idle", recs)
	if ack2.Digest != wantDigest {
		t.Errorf("digest %s != offline %s after restart", ack2.Digest, wantDigest)
	}
	ackB, err := c2.SendBatch(context.Background(), "idle-b", 2, recs[150:])
	if err != nil {
		t.Fatalf("batch 2 as idle-b's first request after restart: %v", err)
	}
	if wantB, _ := offlineDigest(t, cfg, "idle-b", recs); ackB.Digest != wantB || ackB.Duplicate {
		t.Errorf("idle-b after restart: ack %+v, want digest %s", ackB, wantB)
	}

	// The second Close replaces idle's checkpoint atomically: a reader
	// that holds the first one open still reads it whole, and a fresh
	// open reads the second.
	path := filepath.Join(dir, "idle.ckpt")
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	held, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	ts2.Close()
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := io.ReadAll(held); err != nil || !bytes.Equal(got, old) {
		t.Errorf("a reader holding the first checkpoint open read %d bytes (err %v), want its %d", len(got), err, len(old))
	}
	if fresh, err := os.ReadFile(path); err != nil || !bytes.Contains(fresh, []byte(`"next_seq": 3`)) {
		t.Errorf("a fresh open of idle's checkpoint did not read the second one (err %v):\n%.300s", err, fresh)
	}
}

// TestCloseNamesFirstFailedTenant: when Close can checkpoint none of its
// tenants, its error names every one of them, in name order from the
// first, whatever order the tenant map iterates in. Each round runs a
// fresh server.
func TestCloseNamesFirstFailedTenant(t *testing.T) {
	const rounds, tenants = 5, 16
	body := encodeBatch(t, "any", testRecords(t, 31, 16))
	for r := 0; r < rounds; r++ {
		cfg := testConfig(t)
		cfg.CheckpointDir = filepath.Join(t.TempDir(), "ckpt")
		s, err := serve.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		for i := 0; i < tenants; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost,
				fmt.Sprintf("/v1/tenants/t%02d/batches/1", i), bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("t%02d batch 1: %d %s", i, rec.Code, rec.Body)
			}
		}
		// A file in the directory's place fails every checkpoint write.
		if err := os.Remove(cfg.CheckpointDir); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cfg.CheckpointDir, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		err = s.Close()
		msg := fmt.Sprint(err)
		for i, at := 0, 0; i < tenants; i++ {
			name := fmt.Sprintf("t%02d.ckpt", i)
			k := strings.Index(msg[at:], name)
			if k < 0 {
				t.Fatalf("round %d: Close error does not name %s after the tenants before it:\n%v", r, name, err)
			}
			at += k + len(name)
		}
	}
}

// TestShutdownEndsStalledUpload drives the drain pdede-serve runs on
// SIGTERM while a raw client has sent a batch's headers and 4 of its 1,000
// body bytes, then stalled. http.Server.Shutdown leaves that connection
// open, so the drain must close it once its timeout passes; otherwise
// Close waits on the stalled request for good. The drain must return
// promptly and still checkpoint the tenant that had state.
func TestShutdownEndsStalledUpload(t *testing.T) {
	cfg := testConfig(t)
	cfg.CheckpointDir = t.TempDir()
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// reading closes when the stalled request's handler first reads its
	// body, which it does only once it counts as inflight.
	reading := make(chan struct{})
	h := s.Handler()
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.Contains(r.URL.Path, "stalled") {
			r.Body = &firstRead{ReadCloser: r.Body, done: reading}
		}
		h.ServeHTTP(w, r)
	})}
	go hs.Serve(ln)
	ack, err := newTestClient("http://"+ln.Addr().String()).SendBatch(
		context.Background(), "kept", 1, testRecords(t, 14, 200))
	if err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprint(conn, "POST /v1/tenants/stalled/batches/1 HTTP/1.1\r\nHost: serve\r\n"+
		"Content-Length: 1000\r\n\r\nPDT1")
	<-reading

	done := make(chan error, 1)
	go func() { done <- s.Shutdown(hs, 100*time.Millisecond) }()
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("drain still blocked 10 s after its 100 ms timeout")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("drain error %v, want its timeout", err)
	}
	_, ts := startServer(t, cfg)
	st, err := newTestClient(ts.URL).Stats(context.Background(), "kept")
	if err != nil {
		t.Fatalf("kept's checkpoint did not restore: %v", err)
	}
	if st.Digest != ack.Digest || st.NextSeq != 2 {
		t.Errorf("restored stats %+v, want digest %s next_seq 2", st, ack.Digest)
	}
}

// TestRequestDeadlineEndsStalledUpload: outside any drain, a raw client
// sends a batch's headers and 4 of its 1,000 body bytes, then stalls. The
// request deadline bounds the body read, so the client gets the retryable
// 400 truncated reply once RequestTimeout passes, and the handler, its
// inflight registration and the connection's read are free again: a
// drain that follows finishes within its timeout.
func TestRequestDeadlineEndsStalledUpload(t *testing.T) {
	cfg := testConfig(t)
	cfg.RequestTimeout = 200 * time.Millisecond
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	fmt.Fprint(conn, "POST /v1/tenants/stalled/batches/1 HTTP/1.1\r\nHost: serve\r\n"+
		"Content-Length: 1000\r\n\r\nPDT1")
	conn.SetReadDeadline(start.Add(2 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("no reply to the stalled upload within 2 s: %v", err)
	}
	var eb serve.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || eb.Code != serve.CodeTruncated || !eb.Retryable {
		t.Errorf("stalled upload got %d %+v, want 400 %s retryable", resp.StatusCode, eb, serve.CodeTruncated)
	}
	t.Logf("reply after %v", time.Since(start).Round(time.Millisecond))

	if err := s.Shutdown(hs, 5*time.Second); err != nil {
		t.Errorf("drain after the deadline: %v", err)
	}
}

// firstRead closes done when its first Read begins.
type firstRead struct {
	io.ReadCloser
	once sync.Once
	done chan struct{}
}

func (r *firstRead) Read(p []byte) (int, error) {
	r.once.Do(func() { close(r.done) })
	return r.ReadCloser.Read(p)
}

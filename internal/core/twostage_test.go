package core

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/btb"
	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/workload"
)

// twoStageTrace returns a deterministic trace spanning a dozen record
// batches.
func twoStageTrace(t *testing.T) *trace.Memory {
	t.Helper()
	app := workload.Default()
	app.Name = "two-stage"
	app.Seed = 71
	_, m, err := workload.Build(app, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Records) < 8*recordBatch {
		t.Fatalf("trace has %d records, want at least %d", len(m.Records), 8*recordBatch)
	}
	return m
}

// twoStageConfig returns a fresh config with periodic audits on, so the
// audit cadence runs on both paths.
func twoStageConfig(t *testing.T) Config {
	t.Helper()
	tp, err := btb.NewBaseline(btb.BaselineConfig{Entries: 1024})
	if err != nil {
		t.Fatal(err)
	}
	return Config{Params: Icelake(), BackendCPI: 0.5, BTB: tp, WarmupInstrs: 20_000, AuditEvery: 1000}
}

// drainWith runs src through a fresh session under cfg with the given
// drain.
func drainWith(t *testing.T, cfg Config, src trace.Source, drain func(*Session, context.Context, trace.Reader) error) (*Session, error) {
	t.Helper()
	se, err := NewSession(cfg, src.Name())
	if err != nil {
		t.Fatal(err)
	}
	return se, drain(se, context.Background(), src.Open())
}

// settleGoroutines fails t unless the goroutine count falls back to want.
// A joined producer has done its last work, but may still be unwinding
// when the call returns.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after return, want %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// recovered returns the value f panics with, or nil.
func recovered(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// TestRunContextTwoStageFaults: a reader error mid-trace ends both drains
// with the same error after the same records, all of them applied.
func TestRunContextTwoStageFaults(t *testing.T) {
	m := twoStageTrace(t)
	for _, tc := range []struct {
		name string
		plan trace.FaultPlan
		want error
	}{
		{"FailAt", trace.FaultPlan{FailAt: 3*recordBatch + 17}, trace.ErrInjected},
		{"TruncateAt", trace.FaultPlan{TruncateAt: 5*recordBatch - 1}, io.ErrUnexpectedEOF},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := &trace.FaultSource{Src: m, Plan: tc.plan}
			before := runtime.NumGoroutine()
			serial, serr := drainWith(t, twoStageConfig(t), src, (*Session).drain)
			two, terr := drainWith(t, twoStageConfig(t), src, (*Session).drainTwoStage)
			settleGoroutines(t, before)
			if !errors.Is(terr, tc.want) || serr == nil || terr.Error() != serr.Error() {
				t.Fatalf("two-stage error %v, serial error %v, want both %v", terr, serr, tc.want)
			}
			if two.Records() != serial.Records() {
				t.Errorf("two-stage applied %d records, serial %d", two.Records(), serial.Records())
			}
			if *two.Result() != *serial.Result() {
				t.Errorf("results differ:\ntwo-stage: %+v\nserial:    %+v", two.Result(), serial.Result())
			}
			if _, err := RunContext(context.Background(), twoStageConfig(t), src); !errors.Is(err, tc.want) {
				t.Errorf("RunContext error %v, want %v", err, tc.want)
			}
			settleGoroutines(t, before)
		})
	}
}

// TestRunContextTwoStagePanic: a panic in the producer reaches the caller's
// goroutine (recover there catches it) with the value the serial path
// panics with. The producer keeps the stack it was raised on.
func TestRunContextTwoStagePanic(t *testing.T) {
	plan := trace.FaultPlan{PanicAt: 2*recordBatch + 5}
	src := &trace.FaultSource{Src: twoStageTrace(t), Plan: plan}
	want := recovered(func() { _, _ = drainWith(t, twoStageConfig(t), src, (*Session).drain) })
	if want == nil {
		t.Fatal("serial drain did not panic")
	}
	before := runtime.NumGoroutine()
	got := recovered(func() { _, _ = RunContext(context.Background(), twoStageConfig(t), src) })
	if got != want {
		t.Errorf("RunContext panicked with %v, want %v", got, want)
	}
	settleGoroutines(t, before)

	se, err := NewSession(twoStageConfig(t), src.Name())
	if err != nil {
		t.Fatal(err)
	}
	r := src.Open()
	sl := &stageSlot{batch: make([]isa.Branch, recordBatch), recs: make([]warmRec, recordBatch)}
	for sl.err == nil {
		fill(se.sim.fe, r, sl)
	}
	if !errors.Is(sl.err, errStagePanic) || sl.n != 0 || sl.panicked != want {
		t.Fatalf("slot after the panic: n=%d err=%v panicked=%v", sl.n, sl.err, sl.panicked)
	}
	if !strings.Contains(string(sl.stack), "(*FaultReader).Next") {
		t.Errorf("the slot's stack does not name the reader that panicked:\n%s", sl.stack)
	}
}

// TestRunContextTwoStagePanicAfterWindow: the producer reads ahead, so it
// can reach a record that panics after the measure window has filled. The
// serial drain never reads that far, and neither may RunContext's result
// depend on the producer having done so.
func TestRunContextTwoStagePanicAfterWindow(t *testing.T) {
	m := twoStageTrace(t)
	cfg := func() Config {
		c := twoStageConfig(t)
		c.MeasureInstrs = 30_000
		return c
	}
	want, err := drainWith(t, cfg(), m, (*Session).drain)
	if err != nil {
		t.Fatal(err)
	}
	// The first record of the batch after the one the window fills in.
	at := ((want.Records()-1)/recordBatch+1)*recordBatch + 1
	if at > uint64(len(m.Records)) {
		t.Fatalf("trace ends at record %d, before the next batch", len(m.Records))
	}
	src := &trace.FaultSource{Src: m, Plan: trace.FaultPlan{PanicAt: at}}
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		got, err := RunContext(context.Background(), cfg(), src)
		if err != nil {
			t.Fatal(err)
		}
		if *got != *want.Result() {
			t.Fatalf("run %d differs from the serial drain:\ngot:  %+v\nwant: %+v", i, got, want.Result())
		}
	}
	settleGoroutines(t, before)
}

// TestRunContextTwoStageDeadline: a reader that never ends is stopped by
// the context, and the producer with it.
func TestRunContextTwoStageDeadline(t *testing.T) {
	src := &trace.FaultSource{Src: twoStageTrace(t), Plan: trace.FaultPlan{LoopForever: true}}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	before := runtime.NumGoroutine()
	res, err := RunContext(ctx, twoStageConfig(t), src)
	if res != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunContext = (%v, %v), want deadline exceeded", res, err)
	}
	settleGoroutines(t, before)
}

// lateSource flags any read of its readers made after returned is set.
type lateSource struct {
	trace.Source
	returned, late atomic.Bool
}

func (s *lateSource) Open() trace.Reader { return lateReader{s.Source.Open(), s} }

type lateReader struct {
	r   trace.Reader
	src *lateSource
}

func (l lateReader) Next() (isa.Branch, error) {
	if l.src.returned.Load() {
		l.src.late.Store(true)
	}
	return l.r.Next()
}

// TestRunContextTwoStageJoin: when the measure window fills, the producer
// is still decoding a batch ahead; RunContext must not return before it
// has stopped reading. The reader stalls, so the producer is always busy.
func TestRunContextTwoStageJoin(t *testing.T) {
	src := &lateSource{Source: &trace.FaultSource{Src: twoStageTrace(t), Plan: trace.FaultPlan{
		StallAt: 1, StallEvery: 512, StallFor: time.Millisecond,
	}}}
	cfg := twoStageConfig(t)
	cfg.MeasureInstrs = 30_000
	before := runtime.NumGoroutine()
	if _, err := RunContext(context.Background(), cfg, src); err != nil {
		t.Fatal(err)
	}
	src.returned.Store(true)
	// A producer still running would finish its batch before it exits.
	settleGoroutines(t, before)
	if src.late.Load() {
		t.Error("the producer read the trace after RunContext returned")
	}
}

// TestRunContextTwoStagePdtz runs the path a capture takes: map a .pdtz
// file, replay it, unmap it. Under -race this checks the producer is done
// with the mapping when RunContext returns.
func TestRunContextTwoStagePdtz(t *testing.T) {
	m := twoStageTrace(t)
	path := filepath.Join(t.TempDir(), "two-stage.pdtz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WritePdtz(f, m.Name(), m.Open()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	want, err := drainWith(t, twoStageConfig(t), m, (*Session).drain)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	z, err := trace.OpenPdtz(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunContext(context.Background(), twoStageConfig(t), z)
	if cerr := z.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	settleGoroutines(t, before)
	if *got != *want.Result() {
		t.Errorf("capture replay differs from the serial drain:\ngot:  %+v\nwant: %+v", got, want.Result())
	}
}

package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/btb"
	"repro/internal/isa"
	"repro/internal/trace"
)

// endlessSource yields the same taken branch forever: only a context can
// stop a run over it.
type endlessSource struct{}

func (endlessSource) Name() string       { return "endless" }
func (endlessSource) Open() trace.Reader { return endlessReader{} }

type endlessReader struct{}

func (endlessReader) Next() (isa.Branch, error) {
	return isa.Branch{
		PC:       addr.Build(1, 2, 0x100),
		Target:   addr.Build(1, 2, 0x40),
		BlockLen: 5,
		Kind:     isa.CondDirect,
		Taken:    true,
	}, nil
}

func ctxTestConfig(t *testing.T) Config {
	t.Helper()
	tp, err := btb.NewBaseline(btb.BaselineConfig{Entries: 256})
	if err != nil {
		t.Fatal(err)
	}
	return Config{Params: Icelake(), BackendCPI: 0.5, BTB: tp}
}

func TestRunContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	res, err := RunContext(ctx, ctxTestConfig(t), endlessSource{})
	if res != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunContext = (%v, %v), want deadline exceeded", res, err)
	}
}

func TestRunPipelineContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := ctxTestConfig(t)
	cfg.UsePipeline = true
	res, err := RunContext(ctx, cfg, endlessSource{})
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext under the pipeline model = (%v, %v), want canceled", res, err)
	}
}

// A finite trace must be unaffected by a live context.
func TestRunContextFiniteTrace(t *testing.T) {
	m := &trace.Memory{TraceName: "fin", Records: []isa.Branch{
		{PC: addr.Build(1, 2, 0x100), Target: addr.Build(1, 2, 0x40), BlockLen: 5, Kind: isa.CondDirect, Taken: true},
		{PC: addr.Build(1, 2, 0x44), Target: addr.Build(1, 2, 0x100), BlockLen: 3, Kind: isa.UncondDirect, Taken: true},
	}}
	got, err := RunContext(context.Background(), ctxTestConfig(t), m)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(ctxTestConfig(t), m)
	if err != nil {
		t.Fatal(err)
	}
	if got.Instructions != want.Instructions || got.Cycles != want.Cycles {
		t.Errorf("context run differs from plain run: %+v vs %+v", got, want)
	}
}

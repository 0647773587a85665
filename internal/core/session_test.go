package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/btb"
	"repro/internal/isa"
	"repro/internal/pdede"
)

// TestSessionMatchesRunContext proves the incremental path is the same
// simulation under both core models: feeding the trace through a Session
// in ragged batch sizes must reproduce RunContext's result bit-for-bit,
// including cycle floats. A Snapshot inside the measured window must
// already carry cycles; the pipeline model's are a span of timestamps
// rather than a sum.
func TestSessionMatchesRunContext(t *testing.T) {
	tr, app := testTrace(t, 3000)

	mk := func() btb.TargetPredictor {
		tp, err := pdede.New(pdede.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return tp
	}
	for _, model := range []struct {
		name string
		pipe bool
	}{{"analytic", false}, {"pipeline", true}} {
		t.Run(model.name, func(t *testing.T) {
			cfg := Config{
				Params:       Icelake(),
				BackendCPI:   app.BackendCPI,
				WarmupInstrs: 100_000,
				UsePipeline:  model.pipe,
			}

			cfg.BTB = mk()
			want, err := Run(cfg, tr)
			if err != nil {
				t.Fatal(err)
			}

			cfg.BTB = mk()
			se, err := NewSession(cfg, tr.Name())
			if err != nil {
				t.Fatal(err)
			}
			// Ragged batch sizes exercise every batch-boundary path: single
			// records, odd chunks, and one large tail.
			sizes := []int{1, 7, 64, 1, 997, 3, 4096}
			recs := tr.Records
			midWindow := 0
			for i, pos := 0, 0; pos < len(recs); i++ {
				n := sizes[i%len(sizes)]
				if pos+n > len(recs) {
					n = len(recs) - pos
				}
				applied, done, err := se.Apply(recs[pos : pos+n])
				if err != nil {
					t.Fatal(err)
				}
				if done {
					t.Fatal("measure window reported done with MeasureInstrs=0")
				}
				if applied != n {
					t.Fatalf("Apply consumed %d of %d", applied, n)
				}
				pos += n
				if snap := se.Snapshot(); snap.Instructions != 0 && snap.Instructions != want.Instructions {
					midWindow++
					if snap.Cycles <= 0 {
						t.Fatalf("snapshot after %d measured instructions has Cycles %v", snap.Instructions, snap.Cycles)
					}
				}
			}
			if midWindow == 0 {
				t.Fatal("no snapshot fell inside the measured window")
			}
			if se.Records() != uint64(len(recs)) {
				t.Fatalf("Records() = %d, want %d", se.Records(), len(recs))
			}
			got := se.Snapshot()
			if !reflect.DeepEqual(&got, want) {
				t.Errorf("session result diverged from RunContext:\n got %+v\nwant %+v", &got, want)
			}
		})
	}
}

// TestSessionMeasureWindow checks that Apply stops mid-batch when the
// measure window fills and reports the records actually consumed.
func TestSessionMeasureWindow(t *testing.T) {
	tr, app := testTrace(t, 500)
	tp, err := btb.NewBaseline(btb.BaselineConfig{Entries: 512})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Params:        Icelake(),
		BackendCPI:    app.BackendCPI,
		BTB:           tp,
		MeasureInstrs: 50_000,
	}
	se, err := NewSession(cfg, tr.Name())
	if err != nil {
		t.Fatal(err)
	}
	applied, done, err := se.Apply(tr.Records)
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("measure window never filled")
	}
	if applied == len(tr.Records) || applied == 0 {
		t.Fatalf("expected a mid-batch stop, consumed %d of %d", applied, len(tr.Records))
	}
	if got := se.Result().Instructions; got < cfg.MeasureInstrs {
		t.Errorf("measured %d instructions, want >= %d", got, cfg.MeasureInstrs)
	}
}

// auditFailBTB is a stub predictor whose audit starts failing after a set
// number of updates, standing in for a structure that corrupts mid-stream.
type auditFailBTB struct {
	updates   int
	failAfter int
}

func (a *auditFailBTB) Name() string                  { return "audit-fail-stub" }
func (a *auditFailBTB) Lookup(addr.VA) btb.Lookup     { return btb.Lookup{} }
func (a *auditFailBTB) Update(isa.Branch, btb.Lookup) { a.updates++ }
func (a *auditFailBTB) StorageBits() uint64           { return 0 }
func (a *auditFailBTB) Reset()                        { a.updates = 0 }
func (a *auditFailBTB) Audit() error {
	if a.updates > a.failAfter {
		return fmt.Errorf("stub corruption after %d updates", a.failAfter)
	}
	return nil
}

// TestSessionAuditDetectsCorruption wires AuditEvery through Apply: once
// the structure's invariants break, the periodic audit must abort the
// session mid-batch with the audit error.
func TestSessionAuditDetectsCorruption(t *testing.T) {
	tr, app := testTrace(t, 500)
	cfg := Config{
		Params:     Icelake(),
		BackendCPI: app.BackendCPI,
		BTB:        &auditFailBTB{failAfter: 1500},
		AuditEvery: 500,
	}
	se, err := NewSession(cfg, tr.Name())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := se.Apply(tr.Records[:1000]); err != nil {
		t.Fatalf("clean structure failed audit: %v", err)
	}
	if err := se.Audit(); err != nil {
		t.Fatalf("explicit audit on clean structure: %v", err)
	}
	applied, _, err := se.Apply(tr.Records[1000:4000])
	if err == nil {
		t.Fatal("periodic audit missed injected corruption")
	}
	if applied == 0 || applied == 3000 {
		t.Errorf("audit should stop mid-batch, consumed %d", applied)
	}
}

// TestSessionApplyBlockBelowZero: a record whose block would start below
// address 0 (PC 0x40, 100 instructions) is fetched from address 0 up to
// its PC, two ICache lines. Its start used to wrap to the top of the
// 57-bit space, where the ICache walked about 2^51 lines and Apply did not
// return; the deadline turns that hang into a failure.
func TestSessionApplyBlockBelowZero(t *testing.T) {
	tp, err := btb.NewBaseline(btb.BaselineConfig{Entries: 512})
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewSession(Config{Params: Icelake(), BackendCPI: 0.5, BTB: tp}, "below-zero")
	if err != nil {
		t.Fatal(err)
	}
	rec := isa.Branch{PC: 0x40, Target: 0x1000, BlockLen: 100, Kind: isa.CondDirect, Taken: true}
	done := make(chan error, 1)
	go func() {
		_, _, err := se.Apply([]isa.Branch{rec})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Session.Apply of a block starting below address 0 did not return in 10 s")
	}
	if res := se.Snapshot(); res.ICacheMisses != 2 || res.Instructions != 100 {
		t.Errorf("ICacheMisses %d, Instructions %d; want 2 and 100", res.ICacheMisses, res.Instructions)
	}
}

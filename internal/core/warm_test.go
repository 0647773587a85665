package core

import (
	"context"
	"testing"

	"repro/internal/btb"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestWarmStateClonesAreIndependent: one WarmState serves every design's
// run read-only, so driving one warm run to completion must not perturb
// the shared log or any sibling run. Runs of the same design from the same
// warm state — before, between and after runs of a different design —
// must stay bit-identical, and every run's btb.Auditable census must stay
// clean.
func TestWarmStateClonesAreIndependent(t *testing.T) {
	app := workload.Default()
	app.Name = "warm-indep"
	app.Seed = 59
	_, src, err := workload.Build(app, 90_000)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Params:       Icelake(),
		BackendCPI:   app.BackendCPI,
		WarmupInstrs: 30_000,
		AuditEvery:   1024, // deep census on every run, same cadence
	}
	warm, err := WarmupContext(context.Background(), base, src)
	if err != nil {
		t.Fatal(err)
	}
	run := func(entries int) *Result {
		cfg := base
		tp, err := btb.NewBaseline(btb.BaselineConfig{Entries: entries})
		if err != nil {
			t.Fatal(err)
		}
		cfg.BTB = tp
		res, err := RunWarmContext(context.Background(), cfg, src, warm)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	first := run(1024)
	other := run(4096) // sibling design mutates only its own BTB
	again := run(1024)
	if *first != *again {
		t.Errorf("sibling run perturbed a later run of the same design:\nfirst: %+v\nagain: %+v", first, again)
	}
	if *first == *other {
		t.Error("different designs produced identical results; the test is vacuous")
	}
	// The shared log itself must still serve pristine runs.
	final := run(1024)
	if *first != *final {
		t.Errorf("parent warm state drifted across runs:\nfirst: %+v\nfinal: %+v", first, final)
	}
}

// TestWarmupContextRefusals pins the gate conditions that force a cold
// fallback at warm-state construction time.
func TestWarmupContextRefusals(t *testing.T) {
	app := workload.Default()
	app.Name = "warm-refuse"
	app.Seed = 61
	_, src, err := workload.Build(app, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Params: Icelake(), BackendCPI: app.BackendCPI, WarmupInstrs: 10_000}

	noWarm := base
	noWarm.WarmupInstrs = 0
	if _, err := WarmupContext(context.Background(), noWarm, src); err == nil {
		t.Error("zero warmup window accepted")
	}

	pollute := base
	pollute.Params.WrongPathLines = 4
	if _, err := WarmupContext(context.Background(), pollute, src); err == nil {
		t.Error("wrong-path pollution accepted: cache state would depend on the BTB")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := WarmupContext(ctx, base, src); err == nil {
		t.Error("cancelled context not observed by the warmup pass")
	}
}

// TestWarmStateCoverage pins the log's extent: the shared pass logs
// exactly the records a cold run of the base config applies, to the
// trace's end when the measure window is open-ended, and to the record
// that fills the window when it fills mid-trace.
func TestWarmStateCoverage(t *testing.T) {
	app := workload.Default()
	app.Name = "warm-bound"
	app.Seed = 67
	_, src, err := workload.Build(app, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, measure := range []uint64{0, 15_001} {
		base := Config{Params: Icelake(), BackendCPI: app.BackendCPI, WarmupInstrs: 20_000, MeasureInstrs: measure}
		warm, err := WarmupContext(context.Background(), base, src)
		if err != nil {
			t.Fatal(err)
		}
		// The records a cold RunContext applies: its session, drained
		// as RunContext drains it.
		se, err := NewSession(withBaseline(t, base), src.Name())
		if err != nil {
			t.Fatal(err)
		}
		if err := se.drainTwoStage(context.Background(), src.Open()); err != nil {
			t.Fatal(err)
		}
		if warm.Records() != se.Records() {
			t.Errorf("MeasureInstrs %d: warm log covers %d records, a cold run applies %d", measure, warm.Records(), se.Records())
		}
		total := uint64(len(src.Records))
		if measure == 0 && warm.Records() != total {
			t.Errorf("open-ended window: warm log covers %d of the trace's %d records", warm.Records(), total)
		}
		if measure != 0 && warm.Records() >= total {
			t.Errorf("MeasureInstrs %d: window did not fill mid-trace (%d of %d records); the case is vacuous", measure, warm.Records(), total)
		}
	}
}

// firstOpenEOF ends its first reader with a clean io.EOF at record eofAt
// and opens every later reader clean: the shared pass, which opens first,
// sees a shorter trace than the design runs after it.
type firstOpenEOF struct {
	trace.Source
	eofAt uint64
	opens int
}

func (f *firstOpenEOF) Open() trace.Reader {
	if f.opens++; f.opens == 1 {
		return &trace.FaultReader{R: f.Source.Open(), Plan: trace.FaultPlan{EOFAt: f.eofAt}}
	}
	return f.Source.Open()
}

// warmEndsTrace returns a trace, a config whose measure window fills well
// before the trace ends (audits on), and the shared pass over the trace.
// It also returns two record positions at which to cut a reader short:
// one inside the warmup prefix and one inside the measure window.
func warmEndsTrace(t *testing.T) (*trace.Memory, Config, *WarmState, [2]uint64) {
	t.Helper()
	app := workload.Default()
	app.Name = "warm-ends"
	app.Seed = 71
	_, src, err := workload.Build(app, 80_000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Params:        Icelake(),
		BackendCPI:    app.BackendCPI,
		WarmupInstrs:  20_000,
		MeasureInstrs: 30_001,
		AuditEvery:    512,
	}
	warm, err := WarmupContext(context.Background(), cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	// The warmup prefix is about 3.6K records and the window fills at
	// about 8.6K, of the trace's 13.9K.
	return src, cfg, warm, [2]uint64{recordBatch/2 + 5, warm.Records() - 100}
}

// withBaseline returns cfg with a fresh baseline BTB.
func withBaseline(t *testing.T, cfg Config) Config {
	t.Helper()
	tp, err := btb.NewBaseline(btb.BaselineConfig{Entries: 1024})
	if err != nil {
		t.Fatal(err)
	}
	cfg.BTB = tp
	return cfg
}

// TestRunWarmContextRecordPastLog: when only the shared pass's reader ends
// early, a design run's reader yields records the log lacks. The run must
// fail with an error, never index past the log or return a Result cut at
// the log's end — inside the warmup prefix and inside the measure window.
func TestRunWarmContextRecordPastLog(t *testing.T) {
	m, base, _, cuts := warmEndsTrace(t)
	for _, eofAt := range cuts {
		src := &firstOpenEOF{Source: m, eofAt: eofAt}
		warm, err := WarmupContext(context.Background(), base, src)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Records() != eofAt-1 {
			t.Fatalf("EOFAt %d: warm log covers %d records, want %d", eofAt, warm.Records(), eofAt-1)
		}
		res, err := RunWarmContext(context.Background(), withBaseline(t, base), src, warm)
		if err == nil || res != nil {
			t.Errorf("EOFAt %d: run past the warm log returned (%v, %v), want an error", eofAt, res, err)
		}
	}
}

// TestRunWarmContextReaderEndsEarly: a design run whose own reader ends
// before the log does stops where a cold run over that reader stops, with
// the same Result.
func TestRunWarmContextReaderEndsEarly(t *testing.T) {
	m, base, warm, cuts := warmEndsTrace(t)
	for i, eofAt := range cuts {
		src := &trace.FaultSource{Src: m, Plan: trace.FaultPlan{EOFAt: eofAt}}
		cold, err := RunContext(context.Background(), withBaseline(t, base), src)
		if err != nil {
			t.Fatal(err)
		}
		if inWindow := cold.Instructions != 0; inWindow != (i == 1) {
			t.Fatalf("EOFAt %d: cold run measured %d instructions; the cut is not where the test needs it", eofAt, cold.Instructions)
		}
		got, err := RunWarmContext(context.Background(), withBaseline(t, base), src, warm)
		if err != nil {
			t.Fatal(err)
		}
		if *got != *cold {
			t.Errorf("EOFAt %d: warm run diverges from cold run:\nwarm: %+v\ncold: %+v", eofAt, got, cold)
		}
	}
}

package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// equivalence_test.go is the worker-count equivalence suite: every
// observable output of a suite run — exported reports, Suite.Err text,
// checkpoint files — must be byte-identical no matter how many workers
// execute it. The Workers=1 schedule is the sequential runner's schedule,
// so agreement across counts proves the parallel executor changes only
// wall-clock, never results.

// equivWorkerCounts includes 1 (the sequential reference), even splits,
// and a worker count that divides neither the app count nor the design
// count (7), so reduction is exercised on ragged schedules too.
var equivWorkerCounts = []int{1, 2, 4, 7}

func equivOpts(cat []workload.Config, workers int) Options {
	return Options{
		Catalog:      cat,
		TotalInstrs:  50_000,
		WarmupInstrs: 18_000,
		Workers:      workers,
	}
}

// equivRun executes one sweep and captures its observable outputs.
func equivRun(t *testing.T, opts Options, designs []Design) (export []byte, errText string, ckpt []byte) {
	t.Helper()
	suite, err := NewRunner(opts).Run(designs)
	if err != nil {
		t.Fatalf("workers=%d: run failed: %v", opts.Workers, err)
	}
	var buf bytes.Buffer
	if err := suite.WriteJSON(&buf); err != nil {
		t.Fatalf("workers=%d: export: %v", opts.Workers, err)
	}
	if e := suite.Err(); e != nil {
		errText = e.Error()
	}
	if opts.CheckpointPath != "" {
		data, err := os.ReadFile(opts.CheckpointPath)
		if err != nil {
			t.Fatalf("workers=%d: checkpoint: %v", opts.Workers, err)
		}
		ckpt = data
	}
	return buf.Bytes(), errText, ckpt
}

// TestWorkerCountEquivalence runs the reduced sweep — 8 apps against the
// full differential-oracle design registry — at every worker count and
// asserts the three persisted artifacts agree byte-for-byte with the
// sequential (Workers=1) reference.
func TestWorkerCountEquivalence(t *testing.T) {
	cat := tinyCatalog(8)
	designs := DiffDesigns()

	var refExport, refCkpt []byte
	for _, workers := range equivWorkerCounts {
		opts := equivOpts(cat, workers)
		opts.CheckpointPath = filepath.Join(t.TempDir(), "equiv.ckpt")
		export, errText, ckpt := equivRun(t, opts, designs)
		if errText != "" {
			t.Fatalf("workers=%d: unexpected suite errors: %s", workers, errText)
		}
		if workers == 1 {
			refExport, refCkpt = export, ckpt
			continue
		}
		if !bytes.Equal(export, refExport) {
			t.Errorf("workers=%d: exported report differs from sequential reference", workers)
		}
		if !bytes.Equal(ckpt, refCkpt) {
			t.Errorf("workers=%d: checkpoint file differs from sequential reference", workers)
		}
	}
}

// TestWorkerCountEquivalenceColdStart cross-checks the warm-state path
// end to end: a parallel sweep that shares one warmup pass per app must
// export byte-identical results to a sweep where every cell warms from
// cold. Combined with TestWorkerCountEquivalence this closes the loop —
// parallel+warm ≡ parallel+cold ≡ sequential.
func TestWorkerCountEquivalenceColdStart(t *testing.T) {
	cat := tinyCatalog(8)
	designs := DiffDesigns()

	warmExport, _, _ := equivRun(t, equivOpts(cat, 4), designs)
	coldOpts := equivOpts(cat, 4)
	coldOpts.ColdStart = true
	coldExport, _, _ := equivRun(t, coldOpts, designs)
	if !bytes.Equal(warmExport, coldExport) {
		t.Error("warm-clone sweep exports differ from cold-start sweep")
	}
}

// TestWorkerCountEquivalenceKeepGoing injects a panic into two apps'
// readers and asserts the keep-going outputs — including the joined error
// text and the checkpoint holding only the surviving apps — stay
// byte-identical across worker counts.
func TestWorkerCountEquivalenceKeepGoing(t *testing.T) {
	cat := tinyCatalog(8)
	designs := tinyDesigns()

	var refExport, refErr string
	var refCkpt []byte
	for _, workers := range equivWorkerCounts {
		opts := equivOpts(cat, workers)
		opts.KeepGoing = true
		opts.CheckpointPath = filepath.Join(t.TempDir(), "equiv.ckpt")
		opts.BuildTrace = func(app workload.Config, total uint64) (trace.Source, error) {
			src, err := buildSource(app, total)
			if err != nil {
				return nil, err
			}
			switch app.Name {
			case "tiny-2", "tiny-5":
				return &trace.FaultSource{Src: src, Plan: trace.FaultPlan{PanicAt: 7}}, nil
			}
			return src, nil
		}
		export, errText, ckpt := equivRun(t, opts, designs)
		if !strings.Contains(errText, "tiny-2") || !strings.Contains(errText, "tiny-5") {
			t.Fatalf("workers=%d: suite error %q missing the panicking apps", workers, errText)
		}
		if workers == 1 {
			refExport, refErr, refCkpt = string(export), errText, ckpt
			continue
		}
		if string(export) != refExport {
			t.Errorf("workers=%d: exported report differs from sequential reference", workers)
		}
		if errText != refErr {
			t.Errorf("workers=%d: suite error differs:\n got: %s\nwant: %s", workers, errText, refErr)
		}
		if !bytes.Equal(ckpt, refCkpt) {
			t.Errorf("workers=%d: checkpoint file differs from sequential reference", workers)
		}
	}
}

// TestWorkerCountCancellation cancels a sweep as soon as its first trace
// build starts and asserts, for every worker count, that the apps still
// queued behind the in-flight window are recorded as Unstarted — an
// interruption, never a failure — and that no app sneaks out a complete
// result set after the cancel.
func TestWorkerCountCancellation(t *testing.T) {
	cat := tinyCatalog(12)
	designs := tinyDesigns()

	for _, workers := range equivWorkerCounts {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			opts := equivOpts(cat, workers)
			opts.KeepGoing = true
			var once sync.Once
			opts.BuildTrace = func(app workload.Config, total uint64) (trace.Source, error) {
				once.Do(cancel)
				return buildSource(app, total)
			}
			suite, err := NewRunner(opts).RunContext(ctx, designs)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			unstarted := 0
			for i := range suite.Apps {
				a := &suite.Apps[i]
				if !a.Started {
					if !a.Unstarted() {
						t.Errorf("%s: not started but not Unstarted (err=%v, skipped=%v)",
							a.App.Name, a.Err, a.Skipped)
					}
					if len(a.Results) != 0 {
						t.Errorf("%s: unstarted app carries %d results", a.App.Name, len(a.Results))
					}
					unstarted++
					continue
				}
				if a.Err == nil && len(a.Results) == len(designs) {
					t.Errorf("%s: completed every design after cancellation", a.App.Name)
				}
			}
			// At most `workers` apps fit through the in-flight window, so
			// everything behind it must still be queued when the cancel lands.
			if want := len(cat) - workers; unstarted < want {
				t.Errorf("%d apps unstarted, want >= %d (workers=%d of %d apps)",
					unstarted, want, workers, len(cat))
			}
		})
	}
}

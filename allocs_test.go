package pdedesim_test

// The zero-allocation contract of the per-record hot paths, witnessed at
// run time: every function below runs once per simulated branch (or per
// decoded record), so a heap allocation there is a throughput regression.
// Each case measures on warmed structures and processes a chunk of records
// per run, so an allocation on any path the chunk reaches — a miss, an
// eviction, a block boundary — shows up in the per-run average.

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/btb"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/pdede"
	"repro/internal/predictor"
	"repro/internal/trace"
)

const (
	allocRuns  = 20
	allocChunk = 1000
)

// Sinks keep the measured calls' results live.
var (
	sinkLookup btb.Lookup
	sinkBool   bool
	sinkInt    int
	sinkU64    uint64
)

// cycle returns a closure yielding recs[0], recs[1], ... and wrapping.
func cycle(recs []isa.Branch) func() isa.Branch {
	i := 0
	return func() isa.Branch {
		r := recs[i]
		if i++; i == len(recs) {
			i = 0
		}
		return r
	}
}

// pdtzReader encodes recs as a multi-block .pdtz image and opens a reader
// over it.
func pdtzReader(t *testing.T, recs []isa.Branch) *trace.BlockReader {
	t.Helper()
	var buf bytes.Buffer
	src := &trace.Memory{TraceName: "allocs", Records: recs}
	if err := trace.WritePdtz(&buf, "allocs", src.Open()); err != nil {
		t.Fatal(err)
	}
	z, err := trace.ParsePdtz(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return z.Open().(*trace.BlockReader)
}

func TestHotPathsDoNotAllocate(t *testing.T) {
	recs := benchBranches(200_000)
	// The reader cases consume (allocRuns+1)*allocChunk records and must
	// not reach EOF, whose handling is outside the contract.
	if len(recs) < (allocRuns+1)*allocChunk {
		t.Fatalf("trace has %d records, need %d", len(recs), (allocRuns+1)*allocChunk)
	}

	cases := []struct {
		name  string
		setup func(t *testing.T) func()
	}{
		{"trace.BlockReader.Next", func(t *testing.T) func() {
			r := pdtzReader(t, recs)
			return func() {
				for i := 0; i < allocChunk; i++ {
					if _, err := r.Next(); err != nil {
						t.Fatal(err)
					}
				}
			}
		}},
		{"trace.BlockReader.NextBatch", func(t *testing.T) func() {
			r := pdtzReader(t, recs)
			buf := make([]isa.Branch, allocChunk)
			return func() {
				if n, err := r.NextBatch(buf); err != nil || n != len(buf) {
					t.Fatalf("NextBatch = %d, %v", n, err)
				}
			}
		}},
		{"pdede.PDede.Lookup", func(t *testing.T) func() {
			pd := warmPDede(t, recs)
			next := cycle(recs)
			return func() {
				for i := 0; i < allocChunk; i++ {
					sinkLookup = pd.Lookup(next().PC)
				}
			}
		}},
		{"pdede.PDede.Lookup+Update", func(t *testing.T) func() {
			pd := warmPDede(t, recs)
			next := cycle(recs)
			return func() {
				for i := 0; i < allocChunk; i++ {
					r := next()
					pd.Update(r, pd.Lookup(r.PC))
				}
			}
		}},
		{"btb.DedupTable.Find", func(t *testing.T) func() {
			tab := warmDedup(t, recs)
			next := cycle(recs)
			return func() {
				for i := 0; i < allocChunk; i++ {
					sinkInt, sinkBool = tab.Find(uint64(next().Target))
				}
			}
		}},
		{"btb.DedupTable.Get", func(t *testing.T) func() {
			tab := warmDedup(t, recs)
			return func() {
				for ptr := 0; ptr < allocChunk; ptr++ {
					sinkU64, sinkBool = tab.Get(ptr)
				}
			}
		}},
		{"predictor.Bimodal.Predict", func(t *testing.T) func() {
			b := warmBimodal(t, recs)
			next := cycle(recs)
			return func() {
				for i := 0; i < allocChunk; i++ {
					sinkBool = b.Predict(next().PC)
				}
			}
		}},
		{"predictor.Bimodal.Update", func(t *testing.T) func() {
			b := warmBimodal(t, recs)
			next := cycle(recs)
			return func() {
				for i := 0; i < allocChunk; i++ {
					r := next()
					b.Update(r.PC, r.Taken)
				}
			}
		}},
		{"predictor.GShare.Predict", func(t *testing.T) func() {
			g, err := predictor.NewGShare(16384, 14)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range recs {
				g.Update(r.PC, r.Taken)
			}
			next := cycle(recs)
			return func() {
				for i := 0; i < allocChunk; i++ {
					sinkBool = g.Predict(next().PC)
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.setup(t)
			if got := testing.AllocsPerRun(allocRuns, f); got != 0 {
				t.Errorf("%s: %v allocs per %d-record run, want 0", tc.name, got, allocChunk)
			}
		})
	}
}

// coreModels names the two core models the run-level allocation tests
// cover; the pipeline model's FTQ ring must be allocated once per session.
var coreModels = []struct {
	name string
	pipe bool
}{{"analytic", false}, {"pipeline", true}}

// TestRunContextAllocsIndependentOfLength: core.RunContext allocates its
// session and its two-stage ring once per run, so a trace four times as
// long costs no extra allocations.
func TestRunContextAllocsIndependentOfLength(t *testing.T) {
	const n = 3 << 12 // three of RunContext's record batches
	recs := benchBranches(200_000)
	if len(recs) < 4*n {
		t.Fatalf("trace has %d records, need %d", len(recs), 4*n)
	}
	pd := warmPDede(t, recs)
	for _, model := range coreModels {
		t.Run(model.name, func(t *testing.T) {
			cfg := core.Config{Params: core.Icelake(), BackendCPI: 0.5, BTB: pd, UsePipeline: model.pipe}
			allocs := func(m int) float64 {
				src := &trace.Memory{TraceName: "allocs", Records: recs[:m]}
				return testing.AllocsPerRun(allocRuns, func() {
					if _, err := core.RunContext(context.Background(), cfg, src); err != nil {
						t.Fatal(err)
					}
				})
			}
			if short, long := allocs(n), allocs(4*n); short != long {
				t.Errorf("RunContext: %v allocs for %d records, %v for %d", short, n, long, 4*n)
			}
		})
	}
}

// TestRunWarmContextAllocsIndependentOfLength: the frontend log a warm run
// replays is allocated once per app, by core.WarmupContext; the run itself
// allocates its session and one record batch, so a trace four times as
// long costs it no extra allocations.
func TestRunWarmContextAllocsIndependentOfLength(t *testing.T) {
	const n = 3 << 12 // three of RunWarmContext's record batches
	recs := benchBranches(200_000)
	if len(recs) < 4*n {
		t.Fatalf("trace has %d records, need %d", len(recs), 4*n)
	}
	pd := warmPDede(t, recs)
	for _, model := range coreModels {
		t.Run(model.name, func(t *testing.T) {
			cfg := core.Config{Params: core.Icelake(), BackendCPI: 0.5, BTB: pd, WarmupInstrs: 1000, UsePipeline: model.pipe}
			allocs := func(m int) float64 {
				src := &trace.Memory{TraceName: "allocs", Records: recs[:m]}
				warm, err := core.WarmupContext(context.Background(), cfg, src)
				if err != nil {
					t.Fatal(err)
				}
				return testing.AllocsPerRun(allocRuns, func() {
					if _, err := core.RunWarmContext(context.Background(), cfg, src, warm); err != nil {
						t.Fatal(err)
					}
				})
			}
			if short, long := allocs(n), allocs(4*n); short != long {
				t.Errorf("RunWarmContext: %v allocs for %d records, %v for %d", short, n, long, 4*n)
			}
		})
	}
}

// warmPDede returns a PDede-ME that has already seen the whole trace once.
func warmPDede(t *testing.T, recs []isa.Branch) *pdede.PDede {
	t.Helper()
	pd, err := pdede.New(pdede.MultiEntryConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		pd.Update(r, pd.Lookup(r.PC))
	}
	return pd
}

// warmDedup returns a 4K-entry, 4-way table filled with the trace's
// targets, so Find sees both hits and misses.
func warmDedup(t *testing.T, recs []isa.Branch) *btb.DedupTable {
	t.Helper()
	tab, err := btb.NewDedupTable(4096, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		tab.FindOrInsert(uint64(r.Target))
	}
	return tab
}

func warmBimodal(t *testing.T, recs []isa.Branch) *predictor.Bimodal {
	t.Helper()
	b, err := predictor.NewBimodal(16384)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		b.Update(r.PC, r.Taken)
	}
	return b
}

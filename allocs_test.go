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
	"runtime"
	"testing"

	"repro/internal/addr"
	"repro/internal/btb"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/experiments"
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
		{"btb.Baseline.Lookup", func(t *testing.T) func() {
			b := warmBaseline(t, recs)
			next := cycle(recs)
			return func() {
				for i := 0; i < allocChunk; i++ {
					sinkLookup = b.Lookup(next().PC)
				}
			}
		}},
		{"btb.Baseline.Lookup+Update", func(t *testing.T) func() {
			b := warmBaseline(t, recs)
			next := cycle(recs)
			return func() {
				for i := 0; i < allocChunk; i++ {
					r := next()
					b.Update(r, b.Lookup(r.PC))
				}
			}
		}},
		{"btb.DedupBTB.Lookup+Update", func(t *testing.T) func() {
			d := warmDedupBTB(t, recs)
			next := cycle(recs)
			return func() {
				for i := 0; i < allocChunk; i++ {
					r := next()
					d.Update(r, d.Lookup(r.PC))
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
		{"cache.Cache.AccessRange-ICache", func(t *testing.T) func() {
			p := core.Icelake()
			return fetchBlocks(warmCache(t, p.ICacheBytes, p.ICacheWays, recs), recs)
		}},
		{"cache.Cache.AccessRange-L2", func(t *testing.T) func() {
			p := core.Icelake()
			return fetchBlocks(warmCache(t, p.L2Bytes, p.L2Ways, recs), recs)
		}},
		{"predictor.TAGE.Predict+Update", func(t *testing.T) func() {
			tage := warmTAGE(t, recs)
			next := cycle(recs)
			return func() {
				for i := 0; i < allocChunk; i++ {
					if r := next(); r.Kind.IsConditional() {
						sinkBool = tage.Predict(r.PC)
						tage.Update(r.PC, r.Taken)
					}
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

// lengthDesigns returns the designs a run-level allocation test covers
// under one core model. The analytic model runs every DiffDesigns design,
// Baseline under the three replacement policies besides SRRIP that
// Baseline.victim dispatches to (ext-repl runs them), and PDede-ME with
// ITTAGE serving indirect branches; the pipeline model runs PDede-ME.
func lengthDesigns(pipe bool) []experiments.Design {
	me := experiments.PDedeDesign(experiments.NameMultiEntry, pdede.MultiEntryConfig())
	if pipe {
		return []experiments.Design{me}
	}
	ds := experiments.DiffDesigns()
	for _, p := range []btb.PolicyKind{btb.PolicyLRU, btb.PolicyRandom, btb.PolicyGHRP} {
		ds = append(ds, experiments.Design{Name: "baseline-4K-" + p.String(), New: func() (btb.TargetPredictor, error) {
			return btb.NewBaseline(btb.BaselineConfig{Entries: 4096, Policy: p})
		}})
	}
	return append(ds, experiments.WithITTAGE(me))
}

// forEachLengthCase runs check as a subtest per core model and, within it,
// per lengthDesigns design, given a config holding a fresh predictor.
func forEachLengthCase(t *testing.T, check func(t *testing.T, cfg core.Config)) {
	for _, model := range coreModels {
		t.Run(model.name, func(t *testing.T) {
			for _, d := range lengthDesigns(model.pipe) {
				t.Run(d.Name, func(t *testing.T) {
					tp, err := d.New()
					if err != nil {
						t.Fatal(err)
					}
					cfg := core.Config{Params: core.Icelake(), BackendCPI: 0.5, BTB: tp, UsePipeline: model.pipe}
					if d.Mod != nil {
						d.Mod(&cfg)
					}
					check(t, cfg)
				})
			}
		})
	}
}

// lengthSlackBytes is how many more bytes a run over 4n records may
// allocate than one over n. On go1.24, linux/amd64, every row's two
// lengths read within 22 B of each other (go test -v prints them); the
// bound leaves room for noise and stays under one byte for each of the
// 3n = 36,864 extra records.
const lengthSlackBytes = 2048

// lengthRuns is how many runs runCost averages over: fewer than allocRuns,
// because each run here is a whole simulation.
const lengthRuns = 10

// runCost returns the heap allocations and bytes of one f() run, averaged
// over lengthRuns runs after a warm-up run, the way testing.AllocsPerRun
// counts allocations. The integer average hides an amortised append, which
// allocates only about log n times in n calls; its bytes grow with n.
// Callers must not be parallel: the counters are process-wide.
func runCost(f func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < lengthRuns; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / lengthRuns, (after.TotalAlloc - before.TotalAlloc) / lengthRuns
}

// checkLength requires cost, a run over m records, to allocate as many
// times for 4n records as for n, and at most lengthSlackBytes more bytes.
func checkLength(t *testing.T, what string, n int, cost func(m int) (allocs, bytes uint64)) {
	t.Helper()
	shortA, shortB := cost(n)
	longA, longB := cost(4 * n)
	t.Logf("%s: %d allocs, %d B for %d records; %d allocs, %d B for %d", what, shortA, shortB, n, longA, longB, 4*n)
	if shortA != longA {
		t.Errorf("%s: %d allocs for %d records, %d for %d", what, shortA, n, longA, 4*n)
	}
	if longB > shortB+lengthSlackBytes {
		t.Errorf("%s: %d B for %d records, %d B for %d, over the %d B slack",
			what, shortB, n, longB, 4*n, lengthSlackBytes)
	}
}

// TestRunContextAllocsIndependentOfLength: core.RunContext allocates its
// session and its two-stage ring once per run, so a trace four times as
// long costs no extra allocations and no extra bytes.
func TestRunContextAllocsIndependentOfLength(t *testing.T) {
	const n = 3 << 12 // three of RunContext's record batches
	recs := benchBranches(200_000)
	if len(recs) < 4*n {
		t.Fatalf("trace has %d records, need %d", len(recs), 4*n)
	}
	forEachLengthCase(t, func(t *testing.T, cfg core.Config) {
		checkLength(t, "RunContext", n, func(m int) (uint64, uint64) {
			src := &trace.Memory{TraceName: "allocs", Records: recs[:m]}
			return runCost(func() {
				if _, err := core.RunContext(context.Background(), cfg, src); err != nil {
					t.Fatal(err)
				}
			})
		})
	})
}

// TestRunWarmContextAllocsIndependentOfLength: the frontend log a warm run
// replays is allocated once per app, by core.WarmupContext; the run itself
// allocates its session and one record batch, so a trace four times as
// long costs it no extra allocations and no extra bytes.
func TestRunWarmContextAllocsIndependentOfLength(t *testing.T) {
	const n = 3 << 12 // three of RunWarmContext's record batches
	recs := benchBranches(200_000)
	if len(recs) < 4*n {
		t.Fatalf("trace has %d records, need %d", len(recs), 4*n)
	}
	forEachLengthCase(t, func(t *testing.T, cfg core.Config) {
		cfg.WarmupInstrs = 1000
		checkLength(t, "RunWarmContext", n, func(m int) (uint64, uint64) {
			src := &trace.Memory{TraceName: "allocs", Records: recs[:m]}
			warm, err := core.WarmupContext(context.Background(), cfg, src)
			if err != nil {
				t.Fatal(err)
			}
			return runCost(func() {
				if _, err := core.RunWarmContext(context.Background(), cfg, src, warm); err != nil {
					t.Fatal(err)
				}
			})
		})
	})
}

// maxHostRatio bounds a design's host state against the storage it
// models: the bytes its constructor allocates may be at most this multiple
// of StorageBits()/8. The worst design, PDede-ME, reads 2.6x.
const maxHostRatio = 3

// TestDesignFootprint witnesses that no registered design's host state
// outgrows the storage it models by more than maxHostRatio. Host state is
// the runtime.MemStats.TotalAlloc delta across Design.New, so the test is
// not parallel: another goroutine's allocations would count too.
// perfect-btb is exempt: it is an unbounded map by design.
func TestDesignFootprint(t *testing.T) {
	for _, d := range experiments.DiffDesigns() {
		if d.Name == experiments.NamePerfect {
			continue
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := d.New()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		host, model := after.TotalAlloc-before.TotalAlloc, p.StorageBits()/8
		t.Logf("%-20s host %7.1f KiB, modelled %5.1f KiB (%.1fx)",
			d.Name, float64(host)/1024, float64(model)/1024, float64(host)/float64(model))
		if host > maxHostRatio*model {
			t.Errorf("%s: New allocates %d B, over %dx its %d B of modelled storage",
				d.Name, host, maxHostRatio, model)
		}
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

// warmBaseline returns a 4K-entry baseline BTB that has already seen the
// whole trace once.
func warmBaseline(t *testing.T, recs []isa.Branch) *btb.Baseline {
	t.Helper()
	b, err := btb.NewBaseline(btb.BaselineConfig{Entries: 4096})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		b.Update(r, b.Lookup(r.PC))
	}
	return b
}

// warmDedupBTB returns the dedup-only design after one pass over the trace.
func warmDedupBTB(t *testing.T, recs []isa.Branch) *btb.DedupBTB {
	t.Helper()
	d, err := btb.NewDedupBTB(btb.DedupBTBConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		d.Update(r, d.Lookup(r.PC))
	}
	return d
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

// blockStart is the address of the first instruction of r's basic block.
func blockStart(r isa.Branch) addr.VA {
	return r.PC.Add(-uint64(r.BlockLen-1) * isa.InstrBytes)
}

// warmCache returns a cache of the given capacity and ways, with Icelake's
// line size, that has already fetched every block of the trace once.
func warmCache(t *testing.T, bytes, ways int, recs []isa.Branch) *cache.Cache {
	t.Helper()
	c, err := cache.New(bytes, ways, core.Icelake().ICacheLineBytes)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		c.AccessRange(blockStart(r), r.PC)
	}
	return c
}

// fetchBlocks returns a run that fetches the next allocChunk blocks of the
// trace through c, as the frontend does.
func fetchBlocks(c *cache.Cache, recs []isa.Branch) func() {
	next := cycle(recs)
	return func() {
		for i := 0; i < allocChunk; i++ {
			r := next()
			sinkInt = c.AccessRange(blockStart(r), r.PC)
		}
	}
}

// warmTAGE returns the frontend's default TAGE after it has predicted and
// learnt every conditional of the trace once.
func warmTAGE(t *testing.T, recs []isa.Branch) *predictor.TAGE {
	t.Helper()
	tage, err := predictor.NewTAGE(predictor.DefaultTAGEConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Kind.IsConditional() {
			tage.Predict(r.PC)
			tage.Update(r.PC, r.Taken)
		}
	}
	return tage
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

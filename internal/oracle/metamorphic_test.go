package oracle

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/addr"
	"repro/internal/btb"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/pdede"
	"repro/internal/trace"
	"repro/internal/workload"
)

// relabelRegion XORs a constant into the region bits of an address: a
// bijection on the VA space that preserves pages, offsets and therefore
// every SamePage/delta decision — the transformation the partitioned design
// is supposed to be indifferent to, up to hashing.
func relabelRegion(v addr.VA, key uint64) addr.VA {
	return addr.Build(v.Region()^addr.RegionID(key), addr.PageNum(v.Page()), addr.PageOffset(v.Offset()))
}

func relabelTrace(src *trace.Memory, key uint64) *trace.Memory {
	out := &trace.Memory{TraceName: src.TraceName + "-relabel", Records: make([]isa.Branch, len(src.Records))}
	for i, b := range src.Records {
		b.PC = relabelRegion(b.PC, key)
		b.Target = relabelRegion(b.Target, key)
		out.Records[i] = b
	}
	return out
}

// TestMetamorphicRegionRelabel drives the reference oracles over a trace and
// its region-relabeled twin in lockstep: being capacity-free (no sets, no
// hashing), their predictions must correspond exactly under the relabeling.
// The bounded designs are run over the relabeled trace too — their hit
// patterns legitimately shift with the hashed set indices, but their audits
// and differential checks must stay clean.
func TestMetamorphicRegionRelabel(t *testing.T) {
	const key = 0x2a5a5a5
	app := workload.Default()
	_, tr, err := workload.Build(app, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	rl := relabelTrace(tr, key)

	for _, mk := range []func() btb.TargetPredictor{
		func() btb.TargetPredictor { return NewReference(false) },
		func() btb.TargetPredictor { return NewRefPDede(false, false) },
		func() btb.TargetPredictor { return NewRefPDede(true, false) },
	} {
		a, b := mk(), mk()
		ra, rb := tr.Open(), rl.Open()
		for i := 0; ; i++ {
			ba, errA := ra.Next()
			bb, errB := rb.Next()
			if (errA == nil) != (errB == nil) {
				t.Fatal("relabeled trace length differs")
			}
			if errA != nil {
				break
			}
			la, lb := a.Lookup(ba.PC), b.Lookup(bb.PC)
			if la.Hit != lb.Hit {
				t.Fatalf("%s: record %d: hit %t vs relabeled %t", a.Name(), i, la.Hit, lb.Hit)
			}
			if la.Hit && relabelRegion(la.Target, key) != lb.Target {
				t.Fatalf("%s: record %d: target %v does not relabel to %v",
					a.Name(), i, la.Target, lb.Target)
			}
			a.Update(ba, la)
			b.Update(bb, lb)
		}
	}

	for _, d := range checkDeepDesigns() {
		tp, err := d.New()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := DiffDesign(t.Context(), tp, rl, Options{AuditEvery: 2048})
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Err(); err != nil {
			t.Errorf("%s over relabeled trace: %v", d.Name, err)
		}
	}
}

// TestMetamorphicSameSeedDeterminism pins run-to-run reproducibility: two
// full simulations from the same app configuration, trace generation
// included, must produce bit-equal Results — the property every
// golden-regression and checkpoint-resume mechanism in this repository
// rests on. It runs every DiffDesigns design and the three Baseline
// replacement policies besides SRRIP that ext-repl runs, twice in one
// process, so a wall-clock read or a draw from the process-seeded global
// math/rand source that steers any of them shows as a diverging pair.
func TestMetamorphicSameSeedDeterminism(t *testing.T) {
	app := workload.Default()
	designs := experiments.DiffDesigns()
	for _, p := range []btb.PolicyKind{btb.PolicyLRU, btb.PolicyRandom, btb.PolicyGHRP} {
		designs = append(designs, experiments.Design{Name: "baseline-4K-" + p.String(), New: func() (btb.TargetPredictor, error) {
			return btb.NewBaseline(btb.BaselineConfig{Entries: 4096, Policy: p})
		}})
	}
	runAll := func() []*core.Result {
		_, tr, err := workload.Build(app, 250_000)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]*core.Result, len(designs))
		for i, d := range designs {
			tp, err := d.New()
			if err != nil {
				t.Fatal(err)
			}
			out[i], err = core.Run(core.Config{
				Params:       core.Icelake(),
				BackendCPI:   app.BackendCPI,
				BTB:          tp,
				WarmupInstrs: 50_000,
				AuditEvery:   4096,
			}, tr)
			if err != nil {
				t.Fatalf("%s: %v", d.Name, err)
			}
		}
		return out
	}
	r1, r2 := runAll(), runAll()
	for i, d := range designs {
		if !reflect.DeepEqual(r1[i], r2[i]) {
			t.Errorf("%s: same-seed runs diverged:\n%+v\n%+v", d.Name, r1[i], r2[i])
		}
	}
}

// TestMetamorphicWarmupSplit checks the measurement-window algebra: running
// [0, W) and [W, end) as two windows must partition the branch stream
// exactly — every integer counter sums to the full run's value, and the
// float cycle decomposition sums within rounding.
func TestMetamorphicWarmupSplit(t *testing.T) {
	const split = 120_000
	app := workload.Default()
	_, tr, err := workload.Build(app, 300_000)
	if err != nil {
		t.Fatal(err)
	}
	run := func(warmup, measure uint64) *core.Result {
		tp, err := pdede.New(pdede.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Run(core.Config{
			Params:        core.Icelake(),
			BackendCPI:    app.BackendCPI,
			BTB:           tp,
			WarmupInstrs:  warmup,
			MeasureInstrs: measure,
		}, tr)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	full := run(0, 0)
	prefix := run(0, split)
	suffix := run(split, 0)

	sumU := func(name string, f, p, s uint64) {
		if p+s != f {
			t.Errorf("%s: prefix %d + suffix %d != full %d", name, p, s, f)
		}
	}
	sumU("Instructions", full.Instructions, prefix.Instructions, suffix.Instructions)
	sumU("DynBranches", full.DynBranches, prefix.DynBranches, suffix.DynBranches)
	sumU("TakenDyn", full.TakenDyn, prefix.TakenDyn, suffix.TakenDyn)
	sumU("LookupsTaken", full.LookupsTaken, prefix.LookupsTaken, suffix.LookupsTaken)
	sumU("BTBMisses", full.BTBMisses(), prefix.BTBMisses(), suffix.BTBMisses())
	sumU("DirMispredicts", full.DirMispredicts, prefix.DirMispredicts, suffix.DirMispredicts)
	sumU("ICacheMisses", full.ICacheMisses, prefix.ICacheMisses, suffix.ICacheMisses)
	sumU("DeltaServed", full.DeltaServed, prefix.DeltaServed, suffix.DeltaServed)
	sumU("WrongPathFlush", full.WrongPathFlush, prefix.WrongPathFlush, suffix.WrongPathFlush)
	for c := 0; c < int(isa.NumClasses); c++ {
		sumU("BTBMissByClass", full.BTBMissByClass[c], prefix.BTBMissByClass[c], suffix.BTBMissByClass[c])
	}

	sumF := func(name string, f, p, s float64) {
		if f == 0 && p == 0 && s == 0 {
			return
		}
		if rel := math.Abs(p + s - f); rel > 1e-6*math.Max(1, math.Abs(f)) {
			t.Errorf("%s: prefix %g + suffix %g != full %g", name, p, s, f)
		}
	}
	sumF("Cycles", full.Cycles, prefix.Cycles, suffix.Cycles)
	sumF("BackendCycles", full.BackendCycles, prefix.BackendCycles, suffix.BackendCycles)
	sumF("FrontendBubbles", full.FrontendBubbles, prefix.FrontendBubbles, suffix.FrontendBubbles)
}

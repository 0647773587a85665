package pdedesim_test

// The wrong-path purity contract, witnessed at run time: a design's Lookup
// leaves its committed state alone. bpu.resolve looks up every branch but
// Update returns at once for not-taken ones, and a decoupled (FDIP)
// frontend probes the BTB ahead of commit, so a Lookup that wrote entries,
// tags or replacement state would shift every number the designs report.
// Each design runs twice over one trace, once as the core drives it and
// once with wrong-path Lookups between each real Lookup and its Update, and
// both runs must end with the same Result and the same state digest.

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/addr"
	"repro/internal/btb"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/oracle"
	"repro/internal/trace"
	"repro/internal/workload"
)

// purityExempt names the designs whose Lookup fills a helper structure on
// purpose, with the reason.
var purityExempt = map[string]string{
	experiments.NameShotgun: "lookup-time C-BTB installs are the design: a U-BTB hit prefetches the conditionals around its target",
	"2L-pdede-me":           "L0 promotion on an L1 hit is the modelled design",
}

// wrongPathStride spreads the wrong-path records over the whole trace.
const wrongPathStride = 7919

// wrongPath turns every Lookup(pc) the core makes into Lookup(pc), three
// wrong-path Lookups, and Lookup(pc) again, and returns the first result.
// The wrong-path PCs come from a trace record: its branch PC, which hits
// that branch's entry (and its Page- and Region-BTB entries), its target
// and its fall-through. The repeated Lookup re-arms the scratch that each
// Lookup leaves for what follows it: the probe memo the next Update reuses
// and PDede-MT's Next-Target register, which serves the next Lookup.
type wrongPath struct {
	btb.TargetPredictor
	recs []isa.Branch
	next int
}

func (w *wrongPath) Lookup(pc addr.VA) btb.Lookup {
	l := w.TargetPredictor.Lookup(pc)
	r := &w.recs[w.next]
	w.next = (w.next + wrongPathStride) % len(w.recs)
	w.TargetPredictor.Lookup(r.PC)
	w.TargetPredictor.Lookup(r.Target)
	w.TargetPredictor.Lookup(r.Fallthrough())
	w.TargetPredictor.Lookup(pc)
	return l
}

// purityTrace is Server-oltp-primary at 2M instructions. Its working set
// overflows the bounded designs, Page-BTB included, so a replacement-state
// write during a wrong-path Lookup changes later victims. On the
// 8,000-branch benchBranches trace a pages.Touch seeded into PDede.Lookup
// changes no result.
func purityTrace(t *testing.T) (workload.Config, *trace.Memory) {
	t.Helper()
	app, ok := workload.CatalogByName("Server-oltp-primary")
	if !ok {
		t.Fatal("no catalog app Server-oltp-primary")
	}
	_, tr, err := workload.Build(app, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return app, tr
}

// runPure runs a fresh predictor from mk over tr plainly and under
// wrongPath, requires equal Results, and returns both predictors.
func runPure(t *testing.T, app workload.Config, tr *trace.Memory, mk func() (btb.TargetPredictor, error)) (plain, wrapped btb.TargetPredictor) {
	t.Helper()
	run := func(wrap bool) (btb.TargetPredictor, *core.Result) {
		tp, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.Config{Params: core.Icelake(), BackendCPI: app.BackendCPI, BTB: tp}
		if wrap {
			cfg.BTB = &wrongPath{TargetPredictor: tp, recs: tr.Records}
		}
		res, err := core.Run(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		return tp, res
	}
	plain, want := run(false)
	wrapped, got := run(true)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("wrong-path Lookups changed the result:\n  plain:      %v\n  wrong-path: %v", want, got)
	}
	return plain, wrapped
}

func TestLookupIsPure(t *testing.T) {
	app, tr := purityTrace(t)
	refs := map[string]bool{}
	for _, d := range experiments.DiffDesigns() {
		t.Run(d.Name, func(t *testing.T) {
			if reason, ok := purityExempt[d.Name]; ok {
				t.Skip(reason)
			}
			plain, wrapped := runPure(t, app, tr, d.New)
			if p, w := btb.StateDigestOf(plain), btb.StateDigestOf(wrapped); p != w {
				t.Errorf("wrong-path Lookups changed the state digest: %#x, want %#x", w, p)
			}
		})
		// The oracle reference of each design, once per configuration: a
		// fresh reference prints as its type and configuration. A
		// reference keeps no scratch, so its whole state must match.
		tp, err := d.New()
		if err != nil {
			t.Fatal(err)
		}
		ref := oracle.ForDesign(tp)
		key := fmt.Sprintf("%T%+v", ref, ref)
		if refs[key] {
			continue
		}
		refs[key] = true
		t.Run(d.Name+"-oracle", func(t *testing.T) {
			mk := func() (btb.TargetPredictor, error) { return oracle.ForDesign(tp), nil }
			if plain, wrapped := runPure(t, app, tr, mk); !reflect.DeepEqual(plain, wrapped) {
				t.Errorf("wrong-path Lookups changed %s's state", plain.Name())
			}
		})
	}
}

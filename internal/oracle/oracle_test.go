package oracle

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/addr"
	"repro/internal/btb"
	"repro/internal/isa"
	"repro/internal/pdede"
	"repro/internal/trace"
)

func taken(pc, target addr.VA) isa.Branch {
	return isa.Branch{PC: pc, Target: target, BlockLen: 4, Kind: isa.UncondDirect, Taken: true}
}

func TestReferenceConfidenceHysteresis(t *testing.T) {
	r := NewReference(false)
	pc := addr.Build(1, 2, 0x100)
	a := addr.Build(3, 4, 0x200)
	b := addr.Build(5, 6, 0x300)
	r.Update(taken(pc, a), btb.Lookup{})
	r.Update(taken(pc, a), btb.Lookup{}) // conf 1
	// One differing resolution drains confidence but must not retrain yet.
	r.Update(taken(pc, b), btb.Lookup{})
	if got := r.Lookup(pc); !got.Hit || got.Target != a {
		t.Fatalf("confident entry retrained on first mismatch: %+v", got)
	}
	r.Update(taken(pc, b), btb.Lookup{}) // conf 0 → replace
	if got := r.Lookup(pc); !got.Hit || got.Target != b {
		t.Fatalf("drained entry did not retrain: %+v", got)
	}
}

func TestReferenceSkipsReturnsAndNotTaken(t *testing.T) {
	r := NewReference(false)
	pc := addr.Build(1, 2, 0x100)
	ret := isa.Branch{PC: pc, Target: addr.Build(3, 4, 0), BlockLen: 1, Kind: isa.Return, Taken: true}
	r.Update(ret, btb.Lookup{})
	if r.Lookup(pc).Hit {
		t.Error("return allocated with storeReturns disabled")
	}
	nt := isa.Branch{PC: pc, Target: addr.Build(3, 4, 0), BlockLen: 1, Kind: isa.CondDirect, Taken: false}
	r.Update(nt, btb.Lookup{})
	if r.Lookup(pc).Hit {
		t.Error("not-taken branch allocated")
	}
	rs := NewReference(true)
	rs.Update(ret, btb.Lookup{})
	if !rs.Lookup(pc).Hit {
		t.Error("return not allocated with storeReturns enabled")
	}
}

func TestRefPDedeDeltaAndPointerPaths(t *testing.T) {
	r := NewRefPDede(false, false)
	pc := addr.Build(5, 9, 0x800)
	same := pc.WithOffset(0x100)
	r.Update(taken(pc, same), btb.Lookup{})
	l := r.Lookup(pc)
	if !l.Hit || l.Target != same || l.ExtraLatency != 0 {
		t.Fatalf("delta path: %+v", l)
	}
	pc2 := addr.Build(5, 9, 0x900)
	far := addr.Build(7, 11, 0x40)
	r.Update(taken(pc2, far), btb.Lookup{})
	l = r.Lookup(pc2)
	if !l.Hit || l.Target != far || l.ExtraLatency != 1 {
		t.Fatalf("pointer path: %+v", l)
	}
	if err := r.Audit(); err != nil {
		t.Fatal(err)
	}
	if !r.entries[pc].delta || r.entries[pc2].delta {
		t.Errorf("delta flags %v, %v: want the same-page entry on the delta path and the far one on the pointer path",
			r.entries[pc].delta, r.entries[pc2].delta)
	}
}

func TestRefPDedeDisableDelta(t *testing.T) {
	r := NewRefPDede(true, false)
	pc := addr.Build(5, 9, 0x800)
	r.Update(taken(pc, pc.WithOffset(0x100)), btb.Lookup{})
	l := r.Lookup(pc)
	if !l.Hit || l.ExtraLatency != 1 {
		t.Fatalf("disabled delta must use the pointer path: %+v", l)
	}
	if err := r.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestAuditsNameLowestPC: when every entry of a reference oracle is
// corrupt, its audit names the lowest PC on every call, whatever order the
// entry map iterates in, so a failing run reports the same violation each
// time.
func TestAuditsNameLowestPC(t *testing.T) {
	ref, rp := NewReference(false), NewRefPDede(false, false)
	const n = 64
	for i := n - 1; i >= 0; i-- {
		pc := addr.Build(3, addr.PageNum(i), 0x40)
		b := taken(pc, addr.Build(7, 11, addr.PageOffset(i)))
		ref.Update(b, btb.Lookup{})
		rp.Update(b, btb.Lookup{})
	}
	for _, e := range ref.entries {
		e.conf = 9
	}
	for _, e := range rp.entries {
		e.conf = 9
	}
	want := fmt.Sprintf("entry %v ", addr.Build(3, 0, 0x40))
	for _, a := range []btb.Auditable{ref, rp} {
		for i := 0; i < 8; i++ {
			if err := a.Audit(); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("%T audit %d: %v, want the lowest PC's %q", a, i, err, want)
			}
		}
	}
}

func TestForDesignSelection(t *testing.T) {
	p, err := pdede.New(pdede.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ForDesign(p).(*RefPDede); !ok {
		t.Error("PDede not matched with RefPDede")
	}
	b, err := btb.NewBaseline(btb.BaselineConfig{Entries: 512})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ForDesign(b).(*Reference); !ok {
		t.Error("baseline not matched with Reference")
	}
	cfg := pdede.DefaultConfig()
	cfg.DisableDelta = true
	pd, err := pdede.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, ok := ForDesign(pd).(*RefPDede)
	if !ok || !ref.disableDelta {
		t.Error("DisableDelta configuration not mirrored into the oracle")
	}
}

// fabricator is a deliberately broken predictor: it answers every lookup
// with a malformed target above the 57-bit VA space — a prediction no legal
// mechanism can produce — while training nothing.
type fabricator struct{}

func (fabricator) Name() string { return "fabricator" }
func (fabricator) Lookup(pc addr.VA) btb.Lookup {
	return btb.Lookup{Hit: true, Target: addr.VA(uint64(1)<<addr.VABits | uint64(pc))}
}
func (fabricator) Update(isa.Branch, btb.Lookup) {}
func (fabricator) StorageBits() uint64           { return 0 }
func (fabricator) Reset()                        {}

func TestDiffClassifiesCapacityAndStale(t *testing.T) {
	// A 1-entry-ish tiny baseline against the unbounded reference over a
	// working set it cannot hold: expect capacity divergences, zero fatal.
	b, err := btb.NewBaseline(btb.BaselineConfig{Entries: 16, Ways: 2})
	if err != nil {
		t.Fatal(err)
	}
	var recs []isa.Branch
	for round := 0; round < 4; round++ {
		for i := 0; i < 256; i++ {
			pc := addr.Build(1, addr.PageNum(uint64(i)), 0x10)
			recs = append(recs, taken(pc, addr.Build(2, addr.PageNum(uint64(i)), 0x40)))
		}
	}
	src := &trace.Memory{TraceName: "thrash", Records: recs}
	rep, err := Diff(context.Background(), b, NewReference(false), src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FatalCount() != 0 {
		t.Fatalf("legal thrashing flagged fatal: %s", rep.Summary())
	}
	if rep.Count(Capacity) == 0 {
		t.Fatalf("no capacity divergences on a thrashing working set: %s", rep.Summary())
	}
}

func TestDiffAuditFailureStopsRun(t *testing.T) {
	var recs []isa.Branch
	for i := 0; i < 10_000; i++ {
		pc := addr.Build(1, addr.PageNum(uint64(i%512)), addr.PageOffset(uint64((i%256)*16)))
		recs = append(recs, taken(pc, addr.Build(2, addr.PageNum(uint64(i%512)), 0x40)))
	}
	src := &trace.Memory{TraceName: "audit-stop", Records: recs}
	rep, err := Diff(context.Background(), auditFailer{}, NewReference(false), src, Options{AuditEvery: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Count(AuditFailure) == 0 {
		t.Fatalf("audit failure not recorded: %s", rep.Summary())
	}
	if rep.Steps >= uint64(len(recs)) {
		t.Error("run did not stop at the first audit failure")
	}
	if rep.Err() == nil {
		t.Error("Err() nil despite an audit failure")
	}
}

// auditFailer predicts nothing but fails its deep check, modelling silent
// state corruption with externally healthy predictions.
type auditFailer struct{ fabricator }

func (auditFailer) Lookup(addr.VA) btb.Lookup { return btb.Lookup{} }
func (auditFailer) Audit() error              { return errAlwaysBroken }

var errAlwaysBroken = errImpl("bookkeeping corrupted")

type errImpl string

func (e errImpl) Error() string { return string(e) }

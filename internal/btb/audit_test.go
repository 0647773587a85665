package btb

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/addr"
)

// trainDedup drives n distinct taken branches through a DedupBTB, with some
// target sharing so the dedup table holds multi-reference values.
func trainDedup(t *testing.T, n int) *DedupBTB {
	t.Helper()
	d, err := NewDedupBTB(DedupBTBConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		// Distinct PCs; each target shared by exactly two PCs, keeping the
		// dedup refcounts at 2 — live and far from the saturation point.
		pc := addr.Build(1, addr.PageNum(uint64(i/256)), addr.PageOffset(uint64((i%256)*16)))
		target := addr.Build(2, addr.PageNum(uint64(i/512)), addr.PageOffset(uint64((i/2%256)*16)))
		d.Update(takenBranch(pc, target), d.Lookup(pc))
	}
	return d
}

func TestDedupBTBAuditCleanAfterTraining(t *testing.T) {
	d := trainDedup(t, 5000)
	if err := d.Audit(); err != nil {
		t.Fatalf("audit of a healthy design failed: %v", err)
	}
}

// TestAuditCatchesInjectedRefcountBug is the acceptance check for the audit
// subsystem: a deliberately corrupted reference counter — the classic silent
// bookkeeping bug, since predictions keep flowing — must be caught.
func TestAuditCatchesInjectedRefcountBug(t *testing.T) {
	d := trainDedup(t, 2000)
	if err := d.Audit(); err != nil {
		t.Fatalf("pre-corruption audit failed: %v", err)
	}
	// Find a live, unsaturated counter and skew it by one, as a missing
	// Acquire/Release pairing in an eviction path would.
	victim := -1
	for ptr, r := range d.targets.refs {
		if d.targets.valid[ptr] && r >= 1 && r < 7 {
			victim = ptr
			break
		}
	}
	if victim < 0 {
		t.Fatal("no live unsaturated refcount to corrupt; enlarge the training run")
	}
	if d.targets.refs[victim] < 6 {
		d.targets.refs[victim]++
	} else {
		d.targets.refs[victim]--
	}
	err := d.Audit()
	if err == nil {
		t.Fatal("audit accepted a corrupted refcount")
	}
	if !strings.Contains(err.Error(), "refcount") {
		t.Errorf("audit error does not name the refcount invariant: %v", err)
	}
}

func TestAuditCatchesDanglingMonitorPointer(t *testing.T) {
	d := trainDedup(t, 2000)
	for i := range d.entries {
		if d.tags.Live(i) {
			d.entries[i].ptr = int32(d.targets.Entries()) // out of range
			break
		}
	}
	if err := d.Audit(); err == nil {
		t.Fatal("audit accepted an out-of-range monitor pointer")
	}
}

func TestAuditCatchesDuplicateMonitorTag(t *testing.T) {
	d := trainDedup(t, 5000)
	// Duplicate one valid entry's tag into another valid way of its set.
	corrupted := false
outer:
	for s := 0; s < d.sets; s++ {
		base := s * d.ways
		first := -1
		for w := 0; w < d.ways; w++ {
			if !d.tags.Live(base + w) {
				continue
			}
			if first < 0 {
				first = base + w
				continue
			}
			d.tags[base+w] = d.tags[first]
			corrupted = true
			break outer
		}
	}
	if !corrupted {
		t.Fatal("no set with two valid entries; enlarge the training run")
	}
	if err := d.Audit(); err == nil {
		t.Fatal("audit accepted a duplicated tag")
	}
}

func TestDedupTableAuditCatchesMisplacedValue(t *testing.T) {
	tab, err := NewDedupTable(256, 8)
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(1); v <= 100; v++ {
		tab.FindOrInsert(v)
	}
	if err := tab.Audit(); err != nil {
		t.Fatalf("pre-corruption audit failed: %v", err)
	}
	// Overwrite a valid slot with a value whose home set is elsewhere.
	for ptr := range tab.vals {
		if !tab.valid[ptr] {
			continue
		}
		s := ptr / tab.ways
		v := uint64(1000)
		for tab.set(v) == s {
			v++
		}
		tab.vals[ptr] = v
		break
	}
	if err := tab.Audit(); err == nil {
		t.Fatal("audit accepted a value outside its home set")
	}
}

func TestBaselineAuditCatchesMalformedTarget(t *testing.T) {
	b, err := NewBaseline(BaselineConfig{Entries: 512})
	if err != nil {
		t.Fatal(err)
	}
	pc := addr.Build(1, 2, 0x100)
	b.Update(takenBranch(pc, addr.Build(3, 4, 0x200)), Lookup{})
	if err := b.Audit(); err != nil {
		t.Fatalf("pre-corruption audit failed: %v", err)
	}
	for i := range b.entries {
		if b.tags.Live(i) {
			b.entries[i].target = addr.VA(uint64(1) << addr.VABits) // bit 57
			break
		}
	}
	if err := b.Audit(); err == nil {
		t.Fatal("audit accepted a target above the 57-bit VA space")
	}
}

// TestPerfectAuditNamesLowestPC: with every stored target corrupt, the
// perfect BTB's audit names the lowest PC on every call, whatever order
// its target map iterates in.
func TestPerfectAuditNamesLowestPC(t *testing.T) {
	p := NewPerfect()
	for i := 63; i >= 0; i-- {
		p.Update(takenBranch(addr.Build(1, addr.PageNum(i), 0x100), addr.Build(3, 4, 0x200)), Lookup{})
	}
	if err := p.Audit(); err != nil {
		t.Fatalf("pre-corruption audit failed: %v", err)
	}
	for _, e := range p.targets {
		e.target = addr.VA(uint64(1) << addr.VABits) // bit 57
	}
	want := fmt.Sprintf("entry %v ", addr.Build(1, 0, 0x100))
	for i := 0; i < 8; i++ {
		if err := p.Audit(); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("audit %d: %v, want the lowest PC's %q", i, err, want)
		}
	}
}

func TestStateDigestTracksState(t *testing.T) {
	d1 := trainDedup(t, 1000)
	d2 := trainDedup(t, 1000)
	if d1.StateDigest() != d2.StateDigest() {
		t.Error("identical training produced different digests")
	}
	d3 := trainDedup(t, 1001)
	if d1.StateDigest() == d3.StateDigest() {
		t.Error("different training produced identical digests")
	}
}

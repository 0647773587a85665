package btb

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/isa"
)

func takenBranch(pc, target addr.VA) isa.Branch {
	return isa.Branch{PC: pc, Target: target, BlockLen: 4, Kind: isa.UncondDirect, Taken: true}
}

func TestSRRIPBasics(t *testing.T) {
	s := NewSRRIPSets(2, 4, 2)
	// All ways start as victims.
	if v := s.Victim(1, nil); v != 0 {
		t.Errorf("first victim = %d, want 0", v)
	}
	s.Insert(1, 0)
	s.Touch(1, 1)
	// Ways 2 and 3 are still at max → victim 2.
	if v := s.Victim(1, nil); v != 2 {
		t.Errorf("victim = %d, want 2", v)
	}
	s.Insert(1, 2)
	s.Insert(1, 3)
	// Now nothing is at max: one round of aging brings the inserted ways
	// (RRPV 2) to max before the touched one (RRPV 0), and the first of
	// them in way order is the victim.
	if v := s.Victim(1, nil); v != 0 {
		t.Errorf("victim after aging = %d, want 0", v)
	}
	if got, want := s.rrpv[4:8], []uint8{3, 1, 3, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("set 1 RRPVs after aging = %v, want %v", got, want)
	}
	// Set 0 shares the slab but not the state.
	if got, want := s.rrpv[0:4], []uint8{3, 3, 3, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("set 0 RRPVs = %v, want %v (untouched)", got, want)
	}
	s.Reset()
	if v := s.Victim(1, nil); v != 0 || s.rrpv[5] != 3 {
		t.Errorf("after reset: victim %d, way 1 RRPV %d; want 0 and 3", v, s.rrpv[5])
	}
}

func TestSRRIPCandidates(t *testing.T) {
	s := NewSRRIPSets(2, 4, 2)
	s.Touch(1, 0)
	s.Touch(1, 1)
	s.Insert(1, 2)
	// Only the candidates age, and ties go to the first candidate in the
	// given order.
	if v := s.Victim(1, []int{1, 0}); v != 1 {
		t.Errorf("victim %d, want candidate 1", v)
	}
	if got, want := s.rrpv[4:8], []uint8{3, 3, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("RRPVs after candidate aging = %v, want %v", got, want)
	}
	// A candidate subset never yields a way outside it, even when a
	// non-candidate is already at max.
	if v := s.Victim(1, []int{2}); v != 2 {
		t.Errorf("victim %d outside candidates {2}", v)
	}
	defer func() {
		if recover() == nil {
			t.Error("Victim with an empty candidate list did not panic")
		}
	}()
	s.Victim(0, []int{})
}

func TestSRRIPBits(t *testing.T) {
	for _, bits := range []uint{2, 3} {
		s := NewSRRIPSets(1, 4, bits)
		if got := s.Bits(); got != uint64(bits) {
			t.Errorf("Bits = %d, want %d", got, bits)
		}
	}
	for _, bad := range []struct {
		sets, ways int
		bits       uint
	}{{0, 4, 2}, {4, 0, 2}, {4, 4, 0}, {4, 4, 9}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSRRIPSets(%d, %d, %d) did not panic", bad.sets, bad.ways, bad.bits)
				}
			}()
			NewSRRIPSets(bad.sets, bad.ways, bad.bits)
		}()
	}
}

func TestBaselineHitAfterUpdate(t *testing.T) {
	b, err := NewBaseline(BaselineConfig{Entries: 512})
	if err != nil {
		t.Fatal(err)
	}
	pc := addr.Build(1, 2, 0x100)
	tgt := addr.Build(3, 4, 0x500)
	if l := b.Lookup(pc); l.Hit {
		t.Fatal("cold BTB hit")
	}
	b.Update(takenBranch(pc, tgt), Lookup{})
	l := b.Lookup(pc)
	if !l.Hit || l.Target != tgt {
		t.Fatalf("lookup after update = %+v", l)
	}
	if l.ExtraLatency != 0 {
		t.Errorf("baseline should be single-cycle, got extra %d", l.ExtraLatency)
	}
}

func TestBaselineNotTakenDoesNotAllocate(t *testing.T) {
	b, _ := NewBaseline(BaselineConfig{Entries: 512})
	pc := addr.Build(1, 2, 0x100)
	br := isa.Branch{PC: pc, Target: addr.Build(1, 2, 0x50), BlockLen: 2, Kind: isa.CondDirect, Taken: false}
	b.Update(br, Lookup{})
	if b.Lookup(pc).Hit {
		t.Error("not-taken branch allocated an entry")
	}
}

func TestBaselineReturnsPolicy(t *testing.T) {
	pc := addr.Build(1, 2, 0x100)
	ret := isa.Branch{PC: pc, Target: addr.Build(1, 3, 0), BlockLen: 2, Kind: isa.Return, Taken: true}

	b, _ := NewBaseline(BaselineConfig{Entries: 512})
	b.Update(ret, Lookup{})
	if b.Lookup(pc).Hit {
		t.Error("return allocated despite RAS handling them")
	}

	b2, _ := NewBaseline(BaselineConfig{Entries: 512, StoreReturns: true})
	b2.Update(ret, Lookup{})
	if !b2.Lookup(pc).Hit {
		t.Error("StoreReturns config did not allocate a return")
	}
}

func TestBaselineConfidenceProtectsTarget(t *testing.T) {
	b, _ := NewBaseline(BaselineConfig{Entries: 512})
	pc := addr.Build(1, 2, 0x100)
	t1 := addr.Build(3, 4, 0x500)
	t2 := addr.Build(5, 6, 0x700)
	// Train t1 three times: confidence 2.
	for i := 0; i < 3; i++ {
		b.Update(takenBranch(pc, t1), Lookup{})
	}
	// One observation of t2 must not displace t1.
	b.Update(takenBranch(pc, t2), Lookup{})
	if l := b.Lookup(pc); l.Target != t1 {
		t.Errorf("single wrong observation displaced confident target")
	}
	// Repeated t2 eventually wins.
	for i := 0; i < 4; i++ {
		b.Update(takenBranch(pc, t2), Lookup{})
	}
	if l := b.Lookup(pc); l.Target != t2 {
		t.Errorf("dominant new target never installed")
	}
}

func TestBaselineCapacityEviction(t *testing.T) {
	b, _ := NewBaseline(BaselineConfig{Entries: 64, Ways: 4})
	// Insert far more branches than capacity.
	for i := 0; i < 1000; i++ {
		pc := addr.Build(1, addr.PageNum(uint64(i)), 0x10)
		b.Update(takenBranch(pc, addr.Build(2, 0, 0x20)), Lookup{})
	}
	hits := 0
	for i := 0; i < 1000; i++ {
		if b.Lookup(addr.Build(1, addr.PageNum(uint64(i)), 0x10)).Hit {
			hits++
		}
	}
	// Restricted 12-bit tags can alias, so a few probes may false-hit
	// beyond the true capacity; that is by design (§2).
	if hits == 0 || hits > 64+16 {
		t.Errorf("hits after thrash = %d, want in (0, ~64+aliasing]", hits)
	}
}

func TestBaselineStorage(t *testing.T) {
	b, _ := NewBaseline(BaselineConfig{Entries: 4096})
	// Paper: 4K entries at 75 bits = 37.5 KiB.
	if got := b.StorageBits(); got != 4096*75 {
		t.Errorf("StorageBits = %d, want %d", got, 4096*75)
	}
	if kib := float64(b.StorageBits()) / 8 / 1024; kib != 37.5 {
		t.Errorf("baseline size = %v KiB, want 37.5", kib)
	}
}

func TestBaselineRejectsBadConfig(t *testing.T) {
	if _, err := NewBaseline(BaselineConfig{Entries: 100, Ways: 8}); err == nil {
		t.Error("non-divisible entries accepted")
	}
	if _, err := NewBaseline(BaselineConfig{Entries: 24, Ways: 8}); err == nil {
		t.Error("non-power-of-two sets accepted")
	}
}

func TestBaselineReset(t *testing.T) {
	b, _ := NewBaseline(BaselineConfig{Entries: 512})
	pc := addr.Build(1, 2, 0x100)
	b.Update(takenBranch(pc, addr.Build(1, 2, 0x10)), Lookup{})
	b.Reset()
	if b.Lookup(pc).Hit {
		t.Error("hit after Reset")
	}
}

// Property: the baseline never returns a target it was not trained with.
func TestBaselineNeverInventsTargets(t *testing.T) {
	b, _ := NewBaseline(BaselineConfig{Entries: 64, Ways: 4})
	trained := make(map[addr.VA]bool)
	f := func(pcRaw, tgtRaw uint64, probe uint64) bool {
		pc, tgt := addr.New(pcRaw), addr.New(tgtRaw)
		b.Update(takenBranch(pc, tgt), Lookup{})
		trained[tgt] = true
		l := b.Lookup(addr.New(probe))
		return !l.Hit || trained[l.Target]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDedupTableFindOrInsert(t *testing.T) {
	tt, err := NewDedupTable(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	p1, ev := tt.FindOrInsert(42)
	if ev {
		t.Error("insert into empty table evicted")
	}
	p2, _ := tt.FindOrInsert(42)
	if p1 != p2 {
		t.Error("same value produced different pointers")
	}
	v, ok := tt.Get(p1)
	if !ok || v != 42 {
		t.Errorf("Get = %v,%v", v, ok)
	}
	if _, ok := tt.Get(999); ok {
		t.Error("out-of-range Get succeeded")
	}
}

// Property: after FindOrInsert(v), Get returns v through the returned ptr.
func TestDedupTableRoundTrip(t *testing.T) {
	tt, _ := NewDedupTable(64, 4)
	f := func(v uint64) bool {
		p, _ := tt.FindOrInsert(v)
		got, ok := tt.Get(p)
		return ok && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: the table never stores a value twice (dedup invariant).
func TestDedupTableNoDuplicates(t *testing.T) {
	tt, _ := NewDedupTable(64, 4)
	f := func(vs []uint64) bool {
		for _, v := range vs {
			tt.FindOrInsert(v)
		}
		seen := map[uint64]int{}
		for p := 0; p < tt.Entries(); p++ {
			if v, ok := tt.Get(p); ok {
				seen[v]++
				if seen[v] > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDedupTableEviction(t *testing.T) {
	tt, _ := NewDedupTable(4, 4) // fully associative, 4 entries
	evictions := 0
	for i := uint64(0); i < 100; i++ {
		if _, ev := tt.FindOrInsert(i); ev {
			evictions++
		}
	}
	if evictions != 96 {
		t.Errorf("evictions = %d, want 96", evictions)
	}
}

func TestDedupTablePtrBits(t *testing.T) {
	for _, c := range []struct{ entries, ways, want int }{
		{1024, 4, 10}, {4, 4, 2}, {16, 4, 4},
	} {
		tt, _ := NewDedupTable(c.entries, c.ways)
		if got := tt.PtrBits(); got != uint64(c.want) {
			t.Errorf("PtrBits(%d) = %d, want %d", c.entries, got, c.want)
		}
	}
}

func TestDedupBTBBasic(t *testing.T) {
	d, err := NewDedupBTB(DedupBTBConfig{MonitorEntries: 1024, MonitorWays: 8})
	if err != nil {
		t.Fatal(err)
	}
	pc1 := addr.Build(1, 2, 0x100)
	pc2 := addr.Build(1, 2, 0x200)
	shared := addr.Build(3, 4, 0x500)
	d.Update(takenBranch(pc1, shared), Lookup{})
	d.Update(takenBranch(pc2, shared), Lookup{})
	l1, l2 := d.Lookup(pc1), d.Lookup(pc2)
	if !l1.Hit || !l2.Hit || l1.Target != shared || l2.Target != shared {
		t.Fatalf("shared-target lookups = %+v / %+v", l1, l2)
	}
	if l1.ExtraLatency != 1 {
		t.Errorf("dedup lookup should cost one extra cycle")
	}
	// Dedup invariant: one stored copy of the shared target.
	copies := 0
	for p := 0; p < d.targets.Entries(); p++ {
		if v, ok := d.targets.Get(p); ok && addr.VA(v) == shared {
			copies++
		}
	}
	if copies != 1 {
		t.Errorf("shared target stored %d times", copies)
	}
}

func TestDedupBTBStorageSmallerPerEntry(t *testing.T) {
	d, _ := NewDedupBTB(DedupBTBConfig{MonitorEntries: 4096, MonitorWays: 8})
	b, _ := NewBaseline(BaselineConfig{Entries: 4096})
	if d.MonitorEntryBits() >= b.EntryBits() {
		t.Errorf("dedup monitor entry (%d bits) not smaller than baseline entry (%d bits)",
			d.MonitorEntryBits(), b.EntryBits())
	}
}

func TestDedupBTBDanglingPointer(t *testing.T) {
	// A tiny target table forces eviction; the monitor entry then yields a
	// wrong (current) value rather than crashing.
	d, _ := NewDedupBTB(DedupBTBConfig{MonitorEntries: 64, MonitorWays: 4, TargetEntries: 4, TargetWays: 4})
	pc := addr.Build(1, 2, 0x100)
	tgt := addr.Build(3, 4, 0x500)
	d.Update(takenBranch(pc, tgt), Lookup{})
	// Thrash the target table.
	for i := 0; i < 64; i++ {
		d.Update(takenBranch(addr.Build(2, addr.PageNum(uint64(i)), 0), addr.Build(4, addr.PageNum(uint64(i)), 0x10)), Lookup{})
	}
	l := d.Lookup(pc)
	if l.Hit && l.Target == tgt {
		// Possible but unlikely; either way must not panic.
		t.Log("target survived thrash")
	}
}

func TestPerfect(t *testing.T) {
	p := NewPerfect()
	pc := addr.Build(1, 2, 0x100)
	if p.Lookup(pc).Hit {
		t.Error("cold perfect BTB hit")
	}
	p.Update(takenBranch(pc, addr.Build(1, 2, 4)), Lookup{})
	if l := p.Lookup(pc); !l.Hit || l.Target != addr.Build(1, 2, 4) {
		t.Errorf("perfect lookup = %+v", l)
	}
	p.Reset()
	if p.Lookup(pc).Hit {
		t.Error("hit after reset")
	}
}

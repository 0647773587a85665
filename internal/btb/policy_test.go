package btb

import (
	"testing"

	"repro/internal/addr"
)

func TestPolicyNames(t *testing.T) {
	if PolicySRRIP.String() != "srrip" || PolicyLRU.String() != "lru" || PolicyRandom.String() != "random" {
		t.Error("policy names wrong")
	}
	if PolicyKind(9).String() == "" {
		t.Error("unknown policy unnamed")
	}
}

func TestLRUVictimIsOldest(t *testing.T) {
	r := newReplacer(PolicyLRU, 4)
	r.Insert(0)
	r.Insert(1)
	r.Insert(2)
	r.Insert(3)
	r.Touch(0) // 1 is now the oldest
	if v := r.Victim(); v != 1 {
		t.Errorf("LRU victim = %d, want 1", v)
	}
	r.Reset()
	if v := r.Victim(); v != 0 {
		t.Errorf("after reset victim = %d, want 0", v)
	}
}

func TestRandomVictimInRange(t *testing.T) {
	r := newReplacer(PolicyRandom, 5)
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		v := r.Victim()
		if v < 0 || v >= 5 {
			t.Fatalf("victim %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) < 3 {
		t.Errorf("random victims covered only %d ways", len(seen))
	}
}

func TestPolicyBits(t *testing.T) {
	srrip := NewSRRIPSets(1, 8, baselineRRIPBits)
	if b := srrip.Bits(); b != 3 {
		t.Errorf("srrip bits = %d", b)
	}
	if b := newReplacer(PolicyLRU, 8).Bits(); b != 3 {
		t.Errorf("lru bits = %d, want 3 (log2 ways)", b)
	}
	if b := newReplacer(PolicyRandom, 8).Bits(); b != 0 {
		t.Errorf("random bits = %d", b)
	}
}

func TestBaselinePolicies(t *testing.T) {
	for _, pol := range []PolicyKind{PolicySRRIP, PolicyLRU, PolicyRandom} {
		b, err := NewBaseline(BaselineConfig{Entries: 256, Ways: 4, Policy: pol})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		// Basic retention under a fitting working set.
		for round := 0; round < 3; round++ {
			for i := 0; i < 100; i++ {
				pc := addr.Build(1, addr.PageNum(uint64(i)), 64)
				b.Update(takenBranch(pc, addr.Build(2, addr.PageNum(uint64(i)), 0)), Lookup{})
			}
		}
		hits := 0
		for i := 0; i < 100; i++ {
			if b.Lookup(addr.Build(1, addr.PageNum(uint64(i)), 64)).Hit {
				hits++
			}
		}
		if hits < 60 {
			t.Errorf("%v retained only %d/100 fitting entries", pol, hits)
		}
		if pol != PolicySRRIP && b.Name() == "baseline-256" {
			t.Errorf("%v: name does not reflect policy", pol)
		}
	}
}

// LRU and SRRIP must behave differently under a scanning pattern (the
// reason SRRIP exists): a scan larger than associativity evicts everything
// under LRU but not under SRRIP's long re-reference insertion.
func TestScanResistanceDiffers(t *testing.T) {
	run := func(pol PolicyKind) int {
		b, _ := NewBaseline(BaselineConfig{Entries: 8, Ways: 8, Policy: pol})
		// Hot set of 4, touched often.
		hot := make([]addr.VA, 4)
		for i := range hot {
			hot[i] = addr.Build(1, addr.PageNum(uint64(i)), 0)
		}
		for r := 0; r < 8; r++ {
			for _, pc := range hot {
				b.Update(takenBranch(pc, addr.Build(2, 0, 0)), Lookup{})
			}
		}
		// One long scan.
		for i := 0; i < 64; i++ {
			b.Update(takenBranch(addr.Build(3, addr.PageNum(uint64(i)), 0), addr.Build(2, 0, 0)), Lookup{})
		}
		hits := 0
		for _, pc := range hot {
			if b.Lookup(pc).Hit {
				hits++
			}
		}
		return hits
	}
	srrip, lru := run(PolicySRRIP), run(PolicyLRU)
	if srrip < lru {
		t.Errorf("SRRIP (%d hot survivors) not more scan-resistant than LRU (%d)", srrip, lru)
	}
}

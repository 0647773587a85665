package shotgun

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/addr"
	"repro/internal/btb"
	"repro/internal/isa"
)

func trainShotgun(t *testing.T, n int) *Shotgun {
	t.Helper()
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		pc := addr.Build(2, addr.PageNum(uint64(i/256)), addr.PageOffset(uint64((i%256)*16)))
		tgt := addr.Build(2, addr.PageNum(uint64(i/128)), addr.PageOffset(uint64((i%128)*32)))
		kind, taken := isa.UncondDirect, true
		if i%3 == 0 {
			kind, taken = isa.CondDirect, i%6 == 0
		}
		s.Update(br(pc, tgt, kind, taken), s.Lookup(pc))
	}
	return s
}

func TestAuditCleanAfterTraining(t *testing.T) {
	s := trainShotgun(t, 6000)
	if err := s.Audit(); err != nil {
		t.Fatalf("audit of a healthy design failed: %v", err)
	}
}

func TestAuditCatchesMetaOverflow(t *testing.T) {
	s := trainShotgun(t, 2000)
	for blk, lst := range s.meta {
		if len(lst) == 0 {
			continue
		}
		base := blk << blockShift
		for len(s.meta[blk]) <= s.cfg.MaxPerBlock {
			pc := addr.New(base | uint64(len(s.meta[blk])*4))
			s.meta[blk] = append(s.meta[blk], condInfo{pc: pc, target: pc})
		}
		break
	}
	if err := s.Audit(); err == nil {
		t.Fatal("audit accepted a metadata block over its capacity")
	}
}

// TestAuditCatchesMisfiledConditional corrupts every metadata block: the
// audit must fail, and name the lowest block on every call, whatever
// order the metadata map iterates in.
func TestAuditCatchesMisfiledConditional(t *testing.T) {
	s := trainShotgun(t, 2000)
	lowest, corrupted := ^uint64(0), 0
	for blk, lst := range s.meta {
		if len(lst) == 0 {
			continue
		}
		// Move the record's PC out of the block that files it.
		lst[0].pc = addr.New(((blk + 1) << blockShift))
		lowest = min(lowest, blk)
		corrupted++
	}
	if corrupted < 16 {
		t.Fatalf("only %d metadata blocks to corrupt; enlarge the training run", corrupted)
	}
	want := fmt.Sprintf("block %#x ", lowest)
	for i := 0; i < 8; i++ {
		if err := s.Audit(); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("audit %d: %v, want a conditional filed under the wrong block, %q first", i, err, want)
		}
	}
}

var _ btb.Auditable = (*Shotgun)(nil)

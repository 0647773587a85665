package pdede

import (
	"testing"

	"repro/internal/addr"
)

// trainMixed drives n branches through the design: even branches are
// same-page (delta path), odd ones cross pages (pointer path).
func trainMixed(t *testing.T, cfg Config, n int) *PDede {
	t.Helper()
	p := mustNew(t, cfg)
	for i := 0; i < n; i++ {
		pc := addr.Build(3, addr.PageNum(uint64(i/256)), addr.PageOffset(uint64((i%256)*16)))
		var tgt addr.VA
		if i%2 == 0 {
			tgt = pc.WithOffset(addr.PageOffset(uint64((i * 48) & 0xfff)))
		} else {
			tgt = addr.Build(7, addr.PageNum(uint64(i/64)), addr.PageOffset(uint64((i%64)*64)))
		}
		p.Update(taken(pc, tgt), p.Lookup(pc))
	}
	return p
}

func TestAuditCleanAfterTraining(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(), MultiTargetConfig(), MultiEntryConfig()} {
		p := trainMixed(t, cfg, 8000)
		if err := p.Audit(); err != nil {
			t.Errorf("%s: audit of a healthy design failed: %v", cfg.Variant, err)
		}
	}
}

func TestAuditCatchesOversizedOffset(t *testing.T) {
	p := trainMixed(t, DefaultConfig(), 1000)
	for i := range p.entries {
		if p.tags.Live(i) {
			p.entries[i].offset = 1 << addr.OffsetBits
			break
		}
	}
	if err := p.Audit(); err == nil {
		t.Fatal("audit accepted an offset wider than the delta field")
	}
}

func TestAuditCatchesDanglingPartitionPointer(t *testing.T) {
	p := trainMixed(t, DefaultConfig(), 1000)
	corrupted := false
	for i := range p.entries {
		e := &p.entries[i]
		if p.tags.Live(i) && !e.delta() {
			e.pagePtr = uint16(p.pages.Entries())
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatal("no pointer-path entry to corrupt; enlarge the training run")
	}
	if err := p.Audit(); err == nil {
		t.Fatal("audit accepted an out-of-range page pointer")
	}
}

func TestAuditCatchesPointerEntryInNarrowWay(t *testing.T) {
	p := trainMixed(t, MultiEntryConfig(), 4000)
	corrupted := false
	for s := 0; s < p.cfg.Sets && !corrupted; s++ {
		base := s * p.cfg.Ways
		for w := p.halfWays; w < p.cfg.Ways; w++ {
			e := &p.entries[base+w]
			if p.tags.Live(base+w) && e.delta() {
				e.setFlag(flagDelta, false) // narrow ways have no pointer fields to back this
				corrupted = true
				break
			}
		}
	}
	if !corrupted {
		t.Fatal("no narrow-way delta entry to corrupt; enlarge the training run")
	}
	if err := p.Audit(); err == nil {
		t.Fatal("audit accepted a pointer-path entry in a narrow way")
	}
}

func TestAuditCatchesDuplicateTag(t *testing.T) {
	p := trainMixed(t, DefaultConfig(), 8000)
	corrupted := false
outer:
	for s := 0; s < p.cfg.Sets; s++ {
		base := s * p.cfg.Ways
		first := -1
		for w := 0; w < p.cfg.Ways; w++ {
			if !p.tags.Live(base + w) {
				continue
			}
			if first < 0 {
				first = base + w
				continue
			}
			p.tags[base+w] = p.tags[first]
			corrupted = true
			break outer
		}
	}
	if !corrupted {
		t.Fatal("no set with two valid entries; enlarge the training run")
	}
	if err := p.Audit(); err == nil {
		t.Fatal("audit accepted a duplicated tag")
	}
}

func TestAuditCatchesNTStateOutsideMultiTarget(t *testing.T) {
	p := trainMixed(t, DefaultConfig(), 1000)
	corrupted := false
	for i := range p.entries {
		e := &p.entries[i]
		if p.tags.Live(i) && e.delta() {
			e.setFlag(flagNTValid, true)
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatal("no delta entry to corrupt; enlarge the training run")
	}
	if err := p.Audit(); err == nil {
		t.Fatal("audit accepted NT state in the Default variant")
	}
}

func TestAuditCatchesDeltaWhenDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableDelta = true
	p := trainMixed(t, cfg, 1000)
	if err := p.Audit(); err != nil {
		t.Fatalf("pre-corruption audit failed: %v", err)
	}
	for i := range p.entries {
		if p.tags.Live(i) {
			p.entries[i].setFlag(flagDelta, true)
			break
		}
	}
	if err := p.Audit(); err == nil {
		t.Fatal("audit accepted a delta entry with delta encoding disabled")
	}
}

package pdede

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/btb"
	"repro/internal/isa"
)

func taken(pc, target addr.VA) isa.Branch {
	return isa.Branch{PC: pc, Target: target, BlockLen: 4, Kind: isa.UncondDirect, Taken: true}
}

func mustNew(t *testing.T, cfg Config) *PDede {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Sets: 0, Ways: 8, PageEntries: 1024, PageWays: 4, RegionEntries: 4},
		{Sets: 500, Ways: 8, PageEntries: 1024, PageWays: 4, RegionEntries: 4},
		{Sets: 512, Ways: 0, PageEntries: 1024, PageWays: 4, RegionEntries: 4},
		{Sets: 512, Ways: 15, Variant: MultiEntry, PageEntries: 1024, PageWays: 4, RegionEntries: 4},
		{Sets: 512, Ways: 16, Variant: MultiEntry, DisableDelta: true, PageEntries: 1024, PageWays: 4, RegionEntries: 4},
		{Sets: 512, Ways: 12, PageEntries: 0, PageWays: 4, RegionEntries: 4},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	for _, c := range []Config{DefaultConfig(), MultiTargetConfig(), MultiEntryConfig()} {
		if err := c.Validate(); err != nil {
			t.Errorf("preset rejected: %v", err)
		}
	}
}

func TestSamePageDeltaPath(t *testing.T) {
	p := mustNew(t, DefaultConfig())
	pc := addr.Build(5, 9, 0x800)
	tgt := addr.Build(5, 9, 0x100) // same page
	p.Update(taken(pc, tgt), btb.Lookup{})
	l := p.Lookup(pc)
	if !l.Hit || l.Target != tgt {
		t.Fatalf("delta lookup = %+v", l)
	}
	if l.ExtraLatency != 0 {
		t.Errorf("same-page lookup charged extra cycle: %d", l.ExtraLatency)
	}
}

func TestDifferentPagePointerPath(t *testing.T) {
	p := mustNew(t, DefaultConfig())
	pc := addr.Build(5, 9, 0x800)
	tgt := addr.Build(7, 33, 0x2a0)
	p.Update(taken(pc, tgt), btb.Lookup{})
	l := p.Lookup(pc)
	if !l.Hit || l.Target != tgt {
		t.Fatalf("pointer lookup = %+v (want target %v)", l, tgt)
	}
	if l.ExtraLatency != 1 {
		t.Errorf("different-page lookup extra = %d, want 1", l.ExtraLatency)
	}
}

func TestDeltaDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisableDelta = true
	p := mustNew(t, cfg)
	pc := addr.Build(5, 9, 0x800)
	tgt := addr.Build(5, 9, 0x100)
	p.Update(taken(pc, tgt), btb.Lookup{})
	l := p.Lookup(pc)
	if !l.Hit || l.Target != tgt {
		t.Fatalf("lookup = %+v", l)
	}
	if l.ExtraLatency != 1 {
		t.Errorf("partition-only must always pay the extra cycle, got %d", l.ExtraLatency)
	}
}

func TestExtraCycleAlways(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ExtraCycleAlways = true
	p := mustNew(t, cfg)
	pc := addr.Build(5, 9, 0x800)
	p.Update(taken(pc, addr.Build(5, 9, 0x100)), btb.Lookup{})
	if l := p.Lookup(pc); l.ExtraLatency != 1 {
		t.Errorf("ExtraCycleAlways hit extra = %d, want 1", l.ExtraLatency)
	}
}

func TestPageRegionDeduplication(t *testing.T) {
	p := mustNew(t, DefaultConfig())
	// Many branches, all targeting the same page.
	for i := 0; i < 64; i++ {
		pc := addr.Build(5, addr.PageNum(uint64(10+i)), 0x80)
		tgt := addr.Build(7, 33, addr.PageOffset(uint64(i*16)))
		p.Update(taken(pc, tgt), btb.Lookup{})
	}
	// Exactly one page entry and one region entry must be live.
	livePages := 0
	for i := 0; i < p.pages.Entries(); i++ {
		if _, ok := p.pages.Get(i); ok {
			livePages++
		}
	}
	liveRegions := 0
	for i := 0; i < p.regions.Entries(); i++ {
		if _, ok := p.regions.Get(i); ok {
			liveRegions++
		}
	}
	if livePages != 1 || liveRegions != 1 {
		t.Errorf("live pages=%d regions=%d, want 1/1 (dedup)", livePages, liveRegions)
	}
	// And all 64 branches still predict correctly through the shared entry.
	for i := 0; i < 64; i++ {
		pc := addr.Build(5, addr.PageNum(uint64(10+i)), 0x80)
		want := addr.Build(7, 33, addr.PageOffset(uint64(i*16)))
		if l := p.Lookup(pc); !l.Hit || l.Target != want {
			t.Fatalf("branch %d lost its target: %+v", i, l)
		}
	}
}

func TestStalePointerGivesWrongTargetNotCrash(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PageEntries = 4
	cfg.PageWays = 4
	p := mustNew(t, cfg)
	pc := addr.Build(5, 9, 0x800)
	tgt := addr.Build(7, 33, 0x2a0)
	p.Update(taken(pc, tgt), btb.Lookup{})
	// Thrash the tiny page table with other pages.
	for i := 0; i < 32; i++ {
		p.Update(taken(addr.Build(6, addr.PageNum(uint64(i)), 0), addr.Build(8, addr.PageNum(uint64(100+i)), 0x10)), btb.Lookup{})
	}
	l := p.Lookup(pc)
	if l.Hit && l.Target == tgt {
		t.Log("entry survived thrash (possible)")
	}
	// Re-training repairs the entry.
	p.Update(taken(pc, tgt), btb.Lookup{})
	p.Update(taken(pc, tgt), btb.Lookup{})
	if l := p.Lookup(pc); !l.Hit || l.Target != tgt {
		t.Errorf("retrain failed: %+v", l)
	}
}

func TestMultiTargetNextTargetRegister(t *testing.T) {
	p := mustNew(t, MultiTargetConfig())
	pcA := addr.Build(5, 9, 0x100)
	tgtA := addr.Build(5, 9, 0x200) // same-page
	pcB := addr.Build(5, 9, 0x240)  // next taken branch after A
	tgtB := addr.Build(5, 9, 0x400) // same-page

	// Train A then B consecutively: B's offset is planted into A's entry.
	p.Update(taken(pcA, tgtA), btb.Lookup{})
	p.Update(taken(pcB, tgtB), btb.Lookup{})

	// A hit on A arms the NT register…
	if l := p.Lookup(pcA); !l.Hit || l.Target != tgtA {
		t.Fatalf("lookup A = %+v", l)
	}
	// …so a miss on a brand-new same-page PC right after is served with
	// B's offset applied to the missing PC's page.
	pcNew := addr.Build(5, 9, 0x300)
	l := p.Lookup(pcNew)
	if !l.Hit {
		t.Fatal("NT register did not serve the following miss")
	}
	if want := pcNew.WithOffset(addr.PageOffset(tgtB.Offset())); l.Target != want {
		t.Errorf("NT target = %v, want %v", l.Target, want)
	}

	// The register only lives for one lookup: a second miss is a miss.
	if l := p.Lookup(pcNew.Add(64)); l.Hit {
		t.Error("NT register served two consecutive misses")
	}
}

func TestMultiTargetRegisterClearedByHit(t *testing.T) {
	p := mustNew(t, MultiTargetConfig())
	pcA := addr.Build(5, 9, 0x100)
	pcB := addr.Build(5, 9, 0x240)
	p.Update(taken(pcA, addr.Build(5, 9, 0x200)), btb.Lookup{})
	p.Update(taken(pcB, addr.Build(5, 9, 0x400)), btb.Lookup{})
	p.Lookup(pcA) // arms
	p.Lookup(pcB) // hit: consumes/clears without using the register
	if l := p.Lookup(addr.Build(5, 9, 0x999)); l.Hit {
		t.Error("register survived an intervening hit")
	}
}

func TestMultiTargetDefaultVariantUnaffected(t *testing.T) {
	p := mustNew(t, DefaultConfig())
	pcA := addr.Build(5, 9, 0x100)
	pcB := addr.Build(5, 9, 0x240)
	p.Update(taken(pcA, addr.Build(5, 9, 0x200)), btb.Lookup{})
	p.Update(taken(pcB, addr.Build(5, 9, 0x400)), btb.Lookup{})
	p.Lookup(pcA)
	if l := p.Lookup(addr.Build(5, 9, 0x300)); l.Hit {
		t.Error("Default variant served a miss from the NT register")
	}
}

func TestMultiEntryNarrowWaysRejectDifferentPage(t *testing.T) {
	cfg := MultiEntryConfig()
	cfg.Sets = 1 // single set: easy occupancy inspection
	cfg.Ways = 8 // 4 full + 4 narrow
	p := mustNew(t, cfg)

	// Fill with different-page branches: only the 4 full ways may hold them.
	for i := 0; i < 16; i++ {
		pc := addr.Build(5, addr.PageNum(uint64(i)), 0x80)
		p.Update(taken(pc, addr.Build(7, addr.PageNum(uint64(100+i)), 0x10)), btb.Lookup{})
	}
	fullLive, narrowLive := 0, 0
	for w := 0; w < 8; w++ {
		if p.tags.Live(w) {
			if p.narrow(w) {
				narrowLive++
			} else {
				fullLive++
			}
		}
	}
	if narrowLive != 0 {
		t.Errorf("narrow ways hold %d different-page entries", narrowLive)
	}
	if fullLive != 4 {
		t.Errorf("full ways live = %d, want 4", fullLive)
	}

	// Same-page branches may fill the narrow ways.
	for i := 0; i < 8; i++ {
		pc := addr.Build(6, addr.PageNum(uint64(i)), 0x80)
		p.Update(taken(pc, pc.WithOffset(0x10)), btb.Lookup{})
	}
	narrowLive = 0
	for w := 4; w < 8; w++ {
		if p.tags.Live(w) {
			narrowLive++
		}
	}
	if narrowLive != 4 {
		t.Errorf("narrow ways live = %d, want 4", narrowLive)
	}
}

func TestMultiEntryRetrainNarrowToDifferentPage(t *testing.T) {
	cfg := MultiEntryConfig()
	cfg.Sets = 1
	cfg.Ways = 8
	p := mustNew(t, cfg)
	pc := addr.Build(6, 3, 0x80)
	p.Update(taken(pc, pc.WithOffset(0x10)), btb.Lookup{}) // same-page → narrow way
	// Target moves to a different page; entry must migrate to a full way.
	far := addr.Build(9, 77, 0x40)
	p.Update(taken(pc, far), btb.Lookup{}) // conf 0 → retrain
	l := p.Lookup(pc)
	if !l.Hit || l.Target != far {
		t.Fatalf("after migration: %+v", l)
	}
	for w := 4; w < 8; w++ {
		if p.tags.Live(w) && !p.entries[w].delta {
			t.Error("narrow way holds a pointer entry after retrain")
		}
	}
}

func TestCapacityAdvantageOverBaseline(t *testing.T) {
	// With a working set of same-page branches beyond 4K, PDede-MultiEntry
	// (8K entries) must retain far more than the 4K-entry baseline.
	pd := mustNew(t, MultiEntryConfig())
	base, _ := btb.NewBaseline(btb.BaselineConfig{Entries: 4096})
	n := 7000
	for round := 0; round < 3; round++ {
		for i := 0; i < n; i++ {
			pc := addr.Build(3, addr.PageNum(uint64(i/16)), addr.PageOffset(uint64(i%16)*256))
			br := taken(pc, pc.WithOffset(addr.PageOffset(uint64((i%16)*256+64))))
			pd.Update(br, btb.Lookup{})
			base.Update(br, btb.Lookup{})
		}
	}
	pdHits, baseHits := 0, 0
	for i := 0; i < n; i++ {
		pc := addr.Build(3, addr.PageNum(uint64(i/16)), addr.PageOffset(uint64(i%16)*256))
		if pd.Lookup(pc).Hit {
			pdHits++
		}
		if base.Lookup(pc).Hit {
			baseHits++
		}
	}
	if pdHits <= baseHits {
		t.Errorf("PDede hits %d not above baseline hits %d", pdHits, baseHits)
	}
	if float64(pdHits)/float64(n) < 0.9 {
		t.Errorf("PDede retention %.2f too low for 7K same-page set", float64(pdHits)/float64(n))
	}
}

func TestStorageBudgets(t *testing.T) {
	base, _ := btb.NewBaseline(btb.BaselineConfig{Entries: 4096})
	baseBits := base.StorageBits() // 37.5 KiB

	for _, tc := range []struct {
		cfg Config
	}{
		{DefaultConfig()}, {MultiTargetConfig()}, {MultiEntryConfig()},
	} {
		p := mustNew(t, tc.cfg)
		got := p.StorageBits()
		// "Iso-storage" per the paper means "as close as possible" (§4.4.3);
		// MultiEntry lands ~3% above the 37.5 KiB baseline, the others below.
		if float64(got) > float64(baseBits)*1.06 {
			t.Errorf("%s storage %d bits exceeds baseline %d by more than 6%%",
				p.Name(), got, baseBits)
		}
		if got < baseBits/2 {
			t.Errorf("%s storage %d bits suspiciously small vs baseline %d",
				p.Name(), got, baseBits)
		}
	}
	// MultiEntry must track 2× the baseline's PCs.
	me := mustNew(t, MultiEntryConfig())
	if me.Entries() != 8192 {
		t.Errorf("MultiEntry entries = %d, want 8192", me.Entries())
	}
}

func TestScaledFromBaseline(t *testing.T) {
	for _, entries := range []int{1024, 2048, 4096, 8192, 16384} {
		for _, v := range []Variant{Default, MultiTarget, MultiEntry} {
			cfg := ScaledFromBaseline(entries, v)
			if err := cfg.Validate(); err != nil {
				t.Errorf("scaled(%d,%v): %v", entries, v, err)
				continue
			}
			p := mustNew(t, cfg)
			base, _ := btb.NewBaseline(btb.BaselineConfig{Entries: entries})
			ratio := float64(p.StorageBits()) / float64(base.StorageBits())
			if ratio > 1.06 {
				t.Errorf("scaled(%d,%v) storage ratio %.3f exceeds baseline", entries, v, ratio)
			}
			wantEntries := entries * 3 / 2
			if v == MultiEntry {
				wantEntries = entries * 2
			}
			if p.Entries() != wantEntries {
				t.Errorf("scaled(%d,%v) entries = %d, want %d", entries, v, p.Entries(), wantEntries)
			}
		}
	}
}

func TestReset(t *testing.T) {
	p := mustNew(t, MultiTargetConfig())
	pc := addr.Build(5, 9, 0x100)
	p.Update(taken(pc, addr.Build(7, 2, 0x10)), btb.Lookup{})
	p.Reset()
	if p.Lookup(pc).Hit {
		t.Error("hit after Reset")
	}
}

func TestConfidenceProtectsDominantIndirectTarget(t *testing.T) {
	p := mustNew(t, DefaultConfig())
	pc := addr.Build(5, 9, 0x100)
	hot := addr.Build(7, 2, 0x10)
	cold := addr.Build(8, 3, 0x20)
	for i := 0; i < 3; i++ {
		p.Update(taken(pc, hot), btb.Lookup{})
	}
	p.Update(taken(pc, cold), btb.Lookup{})
	if l := p.Lookup(pc); l.Target != hot {
		t.Error("one cold observation displaced hot indirect target")
	}
}

func TestReturnsPolicy(t *testing.T) {
	ret := isa.Branch{PC: addr.Build(1, 2, 0x40), Target: addr.Build(1, 3, 0), BlockLen: 2, Kind: isa.Return, Taken: true}
	p := mustNew(t, DefaultConfig())
	p.Update(ret, btb.Lookup{})
	if p.Lookup(ret.PC).Hit {
		t.Error("return allocated without StoreReturns")
	}
	cfg := DefaultConfig()
	cfg.StoreReturns = true
	p2 := mustNew(t, cfg)
	p2.Update(ret, btb.Lookup{})
	if !p2.Lookup(ret.PC).Hit {
		t.Error("StoreReturns did not allocate return")
	}
}

package btb

import (
	"fmt"
	"math/bits"

	"repro/internal/addr"
	"repro/internal/isa"
)

// DedupBTB is the first Figure 11a ablation step: a monitor indexed by
// branch PC whose entries point into a deduplicated table of *full* 57-bit
// targets. Because ~67% of targets are unique (Figure 7), the target table
// holds fewer entries than the monitor and the freed storage buys more
// monitor entries at iso-storage — but without partitioning the savings are
// modest (the paper measures only 1.6% IPC).
//
// The two sequential structure accesses cost one extra cycle, like PDede's
// pointer path.
type DedupBTB struct {
	name      string
	sets      int
	ways      int
	indexBits uint

	tags    TagWords     // sets × ways; the only record of which ways are live
	entries []dedupEntry // sets × ways
	repl    SRRIPSets
	targets *DedupTable

	// Probe memo, as in Baseline: Lookup's (set, tag, way) reused by the
	// immediately following Update of the same PC. One-shot. Scratch, not
	// architectural: a wrong-path lookup overwriting it only costs a
	// re-probe.
	memoPC  addr.VA
	memoSet addr.SetIndex
	memoTag addr.Tag
	memoWay int32
	memoOK  bool
}

// dedupEntry is a live monitor way's payload, 8 bytes; its tag and valid
// bit are the way's tag word.
type dedupEntry struct {
	ptr  int32
	conf conf
}

// DedupBTBConfig sizes the design.
type DedupBTBConfig struct {
	// MonitorEntries is the monitor capacity (sets*ways, sets power of two).
	MonitorEntries int
	// MonitorWays is the monitor associativity (default 8).
	MonitorWays int
	// TargetEntries is the dedup target table capacity (default
	// MonitorEntries/2, reflecting the measured duplicate share).
	TargetEntries int
	// TargetWays is the target table associativity (default 8).
	TargetWays int
}

// NewDedupBTB builds the design.
func NewDedupBTB(cfg DedupBTBConfig) (*DedupBTB, error) {
	if cfg.MonitorEntries == 0 {
		cfg.MonitorEntries = 4608 // 512 sets × 9 ways: iso-storage vs 4K baseline
		if cfg.MonitorWays == 0 {
			cfg.MonitorWays = 9
		}
	}
	if cfg.MonitorWays == 0 {
		cfg.MonitorWays = 8
	}
	if cfg.TargetEntries == 0 {
		// ~67% of targets are unique (Figure 7), but the iso-storage budget
		// (37.5 KiB) only affords ~55% once the 62-bit refcounted target
		// entries are paid for: 2560 entries (256 sets × 10 ways) lands the
		// total at 35.7 KiB. The undersized table is part of why
		// full-target dedup alone underwhelms (§5.3 / Figure 11a).
		cfg.TargetEntries = 2560
		if cfg.TargetWays == 0 {
			cfg.TargetWays = 10
		}
	}
	if cfg.TargetWays == 0 {
		cfg.TargetWays = 6
	}
	if cfg.MonitorEntries <= 0 || cfg.MonitorEntries%cfg.MonitorWays != 0 {
		return nil, fmt.Errorf("btb: dedup monitor %d entries / %d ways invalid",
			cfg.MonitorEntries, cfg.MonitorWays)
	}
	sets := cfg.MonitorEntries / cfg.MonitorWays
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("btb: dedup monitor sets %d not a power of two", sets)
	}
	tt, err := NewDedupTable(cfg.TargetEntries, cfg.TargetWays)
	if err != nil {
		return nil, err
	}
	tt.EnableRefcounts()
	d := &DedupBTB{
		name:      fmt.Sprintf("dedup-%d", cfg.MonitorEntries),
		sets:      sets,
		ways:      cfg.MonitorWays,
		indexBits: uint(bits.TrailingZeros(uint(sets))),
		tags:      NewTagWords(cfg.MonitorEntries),
		entries:   make([]dedupEntry, cfg.MonitorEntries),
		repl:      NewSRRIPSets(sets, cfg.MonitorWays, 2),
		targets:   tt,
	}
	return d, nil
}

// Name implements TargetPredictor.
func (d *DedupBTB) Name() string { return d.name }

// Lookup implements TargetPredictor.
func (d *DedupBTB) Lookup(pc addr.VA) Lookup {
	set, tag := addr.IndexTag(pc, d.indexBits, TagBits)
	base := int(set) * d.ways
	w := d.tags.Find(base, d.ways, tag)
	d.memoPC, d.memoSet, d.memoTag, d.memoWay, d.memoOK = pc, set, tag, int32(w), true
	if w < 0 {
		return Lookup{}
	}
	v, ok := d.targets.Get(int(d.entries[base+w].ptr))
	if !ok {
		return Lookup{}
	}
	return Lookup{Hit: true, Target: addr.VA(v), ExtraLatency: 1}
}

// probe resolves pc's (set, tag, matched way), reusing the Lookup memo when
// Update immediately follows Lookup for the same PC (see Baseline.probe).
func (d *DedupBTB) probe(pc addr.VA) (set addr.SetIndex, tag addr.Tag, way int) {
	if d.memoOK && d.memoPC == pc {
		d.memoOK = false
		return d.memoSet, d.memoTag, int(d.memoWay)
	}
	d.memoOK = false
	set, tag = addr.IndexTag(pc, d.indexBits, TagBits)
	return set, tag, d.tags.Find(int(set)*d.ways, d.ways, tag)
}

// Update implements TargetPredictor.
func (d *DedupBTB) Update(br isa.Branch, prior Lookup) {
	if !br.Taken || br.Kind.IsReturn() {
		return
	}
	set, tag, hit := d.probe(br.PC)
	base := int(set) * d.ways
	if hit >= 0 {
		w := hit
		e := &d.entries[base+w]
		d.repl.Touch(int(set), w)
		if v, ok := d.targets.Get(int(e.ptr)); ok && addr.VA(v) == br.Target {
			e.conf = e.conf.inc()
			d.targets.Touch(int(e.ptr))
			return
		}
		// Stale-pointer repair: if the branch's (unchanged) target still
		// lives in the table at another slot, the pointer went dangling when
		// its old slot was reused — re-wire without paying confidence
		// hysteresis. The content lookup reuses the allocation path's CAM.
		if ptr, found := d.targets.Find(uint64(br.Target)); found {
			if int32(ptr) != e.ptr {
				d.targets.Release(int(e.ptr))
				e.ptr = int32(ptr)
				d.targets.Acquire(ptr)
				d.targets.Touch(ptr)
				return
			}
		}
		if e.conf > 0 {
			e.conf = e.conf.dec()
			return
		}
		ptr, _ := d.targets.FindOrInsert(uint64(br.Target))
		d.targets.Release(int(e.ptr))
		e.ptr = int32(ptr)
		d.targets.Acquire(ptr)
		return
	}
	// Allocate: target table first (§4.4.2 ordering), then the monitor.
	ptr, _ := d.targets.FindOrInsert(uint64(br.Target))
	w := -1
	for i := 0; i < d.ways; i++ {
		if !d.tags.Live(base + i) {
			w = i
			break
		}
	}
	if w < 0 {
		w = d.repl.Victim(int(set), nil)
		d.targets.Release(int(d.entries[base+w].ptr))
	}
	d.tags.Set(base+w, tag)
	d.entries[base+w] = dedupEntry{ptr: int32(ptr)}
	d.targets.Acquire(ptr)
	d.repl.Insert(int(set), w)
}

// MonitorEntryBits returns per-entry monitor storage.
func (d *DedupBTB) MonitorEntryBits() uint64 {
	return pidBits + TagBits + confBits + d.repl.Bits() + d.targets.PtrBits()
}

// StorageBits implements TargetPredictor.
func (d *DedupBTB) StorageBits() uint64 {
	return uint64(d.sets*d.ways)*d.MonitorEntryBits() + d.targets.StorageBits(targetBits)
}

// Reset implements TargetPredictor.
func (d *DedupBTB) Reset() {
	d.memoOK = false
	d.tags.Reset()
	for i := range d.entries {
		d.entries[i] = dedupEntry{}
	}
	d.repl.Reset()
	d.targets.Reset()
}

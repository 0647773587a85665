// Package pdede implements the paper's contribution: the Partitioned,
// Deduplicated, Delta branch target buffer (§4).
//
// Structure:
//
//	BTB-Monitor (BTBM) — indexed with the hashed branch PC, carries the
//	    12-bit tag and all per-branch metadata, stores the 12-bit target
//	    page offset directly, plus pointers into the Page-BTB and
//	    Region-BTB for different-page branches.
//	Page-BTB   — small deduplicated table of 18-bit page components,
//	    content-indexed, no tags (the BTBM pointer locates entries).
//	Region-BTB — tiny (4-entry) deduplicated table of 27-bit region
//	    components.
//
// Delta encoding: when a branch's target lies in its own page (delta bit
// set) the target is PC's page ‖ stored offset — no Page/Region access, no
// extra cycle. Different-page branches pay one extra lookup cycle for the
// sequential BTBM → Page/Region read (§5.4).
//
// Variants (§4.3.1):
//
//	MultiTarget — reuses the idle pointer fields of a same-page entry to
//	    hold the target offset of the next taken same-page branch, served
//	    from the Next Target Offset register when that branch misses.
//	MultiEntry  — half the ways of each set are narrow (no pointer fields,
//	    same-page branches only), doubling tracked PCs at iso-storage.
package pdede

import (
	"fmt"
	"math/bits"

	"repro/internal/addr"
	"repro/internal/btb"
	"repro/internal/isa"
)

// Variant selects the §4.3.1 design.
type Variant uint8

const (
	// Default is PDede with partitioning, dedup and delta encoding.
	Default Variant = iota
	// MultiTarget packs a second same-page target into idle pointer fields.
	MultiTarget
	// MultiEntry splits each set into full and narrow ways.
	MultiEntry
)

func (v Variant) String() string {
	switch v {
	case Default:
		return "pdede"
	case MultiTarget:
		return "pdede-mt"
	case MultiEntry:
		return "pdede-me"
	default:
		return fmt.Sprintf("Variant(%d)", uint8(v))
	}
}

// Config sizes a PDede BTB.
type Config struct {
	// Sets and Ways size the BTBM (Sets must be a power of two). For
	// MultiEntry, Ways is the total and the upper half are narrow.
	Sets int
	Ways int
	// PageEntries/PageWays size the Page-BTB (default 1024 × 4-way).
	PageEntries int
	PageWays    int
	// RegionEntries sizes the fully-associative Region-BTB (default 4).
	RegionEntries int
	// Variant selects Default, MultiTarget or MultiEntry.
	Variant Variant
	// DisableDelta turns off delta encoding (the partitioning-only
	// ablation of Figure 11a): every branch uses the pointer path.
	DisableDelta bool
	// ExtraCycleAlways charges the extra lookup cycle on every hit (§5.4
	// sensitivity: a BTB that always takes two cycles).
	ExtraCycleAlways bool
	// StoreReturns also allocates return instructions (§5.7).
	StoreReturns bool
	// NTLastRegisters is the depth of the Last BTBM set/way register ring
	// used by MultiTarget allocation (default 1, the paper's design; the
	// paper's future-work section suggests multiple registers, which the
	// ext-ntdepth ablation explores: a same-page branch's offset is planted
	// into every ringed predecessor whose pointer fields are idle).
	NTLastRegisters int
}

// DefaultConfig is the iso-storage PDede-Default of Table 2: a 6144-entry
// BTBM (512×12) + 1K-entry Page-BTB + 4-entry Region-BTB ≈ 34 KiB versus
// the 37.5 KiB baseline.
func DefaultConfig() Config {
	return Config{
		Sets: 512, Ways: 12,
		PageEntries: 1024, PageWays: 4,
		RegionEntries: 4,
		Variant:       Default,
	}
}

// MultiTargetConfig is PDede-Multi Target at iso-storage.
func MultiTargetConfig() Config {
	c := DefaultConfig()
	c.Variant = MultiTarget
	c.NTLastRegisters = 1
	return c
}

// MultiEntryConfig is PDede-Multi Entry size: 8192 BTBM entries (512×16,
// half narrow) tracking twice the baseline's PCs at iso-storage.
func MultiEntryConfig() Config {
	c := DefaultConfig()
	c.Ways = 16
	c.Variant = MultiEntry
	return c
}

// ScaledFromBaseline returns the iso-storage PDede configuration matching a
// baseline BTB of the given entry count (Figure 12b/12c sweeps). The BTBM
// gets 1.5× the baseline entries (2× for MultiEntry) — the storage freed by
// partitioning and dedup — and the Page-BTB scales at 1/4 of the baseline
// entries, capped below by the default sizing.
func ScaledFromBaseline(baselineEntries int, v Variant) Config {
	c := DefaultConfig()
	c.Variant = v
	c.Sets = nextPow2(baselineEntries / 8)
	if c.Sets < 16 {
		c.Sets = 16
	}
	if v == MultiEntry {
		c.Ways = 16
	}
	pe := nextPow2(baselineEntries / 4)
	if pe < 256 {
		pe = 256
	}
	c.PageEntries = pe
	return c
}

func nextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// The largest Page-BTB and Region-BTB a BTBM entry's pointers index:
// entry.pagePtr is a uint16 and entry.regionPtr a uint8.
const (
	maxPageEntries   = 1 << 16
	maxRegionEntries = 1 << 8
)

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Sets <= 0 || c.Sets&(c.Sets-1) != 0:
		return fmt.Errorf("pdede: Sets %d not a power of two", c.Sets)
	case c.Ways <= 0:
		return fmt.Errorf("pdede: Ways %d", c.Ways)
	case c.Variant == MultiEntry && c.Ways%2 != 0:
		return fmt.Errorf("pdede: MultiEntry needs even Ways, got %d", c.Ways)
	case c.Variant == MultiEntry && c.DisableDelta:
		return fmt.Errorf("pdede: MultiEntry requires delta encoding")
	case c.Variant == MultiTarget && c.DisableDelta:
		return fmt.Errorf("pdede: MultiTarget requires delta encoding")
	case c.PageEntries <= 0 || c.PageWays <= 0:
		return fmt.Errorf("pdede: page table %d/%d", c.PageEntries, c.PageWays)
	case c.PageEntries > maxPageEntries:
		return fmt.Errorf("pdede: PageEntries %d exceeds the %d a BTBM page pointer indexes",
			c.PageEntries, maxPageEntries)
	case c.RegionEntries <= 0:
		return fmt.Errorf("pdede: RegionEntries %d", c.RegionEntries)
	case c.RegionEntries > maxRegionEntries:
		return fmt.Errorf("pdede: RegionEntries %d exceeds the %d a BTBM region pointer indexes",
			c.RegionEntries, maxRegionEntries)
	case c.NTLastRegisters < 0 || c.NTLastRegisters > 8:
		return fmt.Errorf("pdede: NTLastRegisters %d outside [0,8]", c.NTLastRegisters)
	}
	return nil
}

// PDede is the full design. It implements btb.TargetPredictor.
type PDede struct {
	cfg       Config
	name      string
	indexBits uint
	halfWays  int // first narrow way index (Ways for non-MultiEntry)

	tags    btb.TagWords // Sets × Ways; the only record of which ways are live
	entries []entry      // Sets × Ways
	repl    btb.SRRIPSets

	pages   *btb.DedupTable
	regions *btb.DedupTable

	// Next Target Offset register (MultiTarget, §4.3.1): armed by a hit on
	// an entry with the NT bit, serves exactly the next lookup if it
	// misses. Scratch by definition: the register is a one-lookup-deep
	// prediction pipeline latch, re-armed on every Lookup, never part of
	// the committed BTB image (StateDigest ignores it).
	ntArmed  bool
	ntOffset uint16

	// Last BTBM set/way register ring (MultiTarget allocation path).
	lastRing []int // flat entry indices; -1 = invalid
	lastPos  int

	fullCandidates []int // scratch: way indices allowed for different-page

	// Probe memo: Lookup leaves its decomposed (set, tag) and matched BTBM
	// way for the immediately following Update of the same PC, hoisting the
	// addr decomposition and way scan out of the BTBM probe→train sequence.
	// One-shot: every Update consumes or invalidates it (updates mutate the
	// set). Scratch: a wrong-path lookup clobbering it only costs a
	// re-probe.
	memoPC  addr.VA
	memoSet addr.SetIndex
	memoTag addr.Tag
	memoWay int32 // matched way, -1 on miss
	memoOK  bool

	// Stats accumulates design-internal event counts since Reset.
	// Observability counters, not predictor state: excluded from
	// StateDigest and free for the prediction path to bump.
	Stats Stats
}

// Stats captures PDede-internal events for analysis and tests.
type Stats struct {
	// StaleRepairs counts in-place pointer re-wirings after a Page/Region
	// entry was reused under a live BTBM entry (§4.4.2's 0.06% event).
	StaleRepairs uint64
	// Retrains counts target changes that went through the confidence path.
	Retrains uint64
	// NTServed counts BTBM misses answered by the Next Target register.
	NTServed uint64
}

// entry is a live BTBM way's payload; its tag and valid bit are the way's
// tag word. The Sets×Ways array dominates the model's memory, at 8 bytes
// per entry: each pointer is as wide as the largest table Validate accepts
// (maxPageEntries, maxRegionEntries), and the confidence counter, the
// delta bit and the NT-valid bit share one byte.
type entry struct {
	pagePtr uint16
	offset  uint16
	// MultiTarget: the next taken same-page branch's offset (§4.3.1).
	ntOffset  uint16
	regionPtr uint8
	flags     uint8 // confMask | flagDelta | flagNTValid
}

// The flags byte: a 2-bit saturating confidence counter in the low bits,
// then the delta bit (target in the PC's own page) and the NT-valid bit
// (ntOffset holds the next same-page target, MultiTarget only).
const (
	confMask    = 3
	flagDelta   = 1 << 2
	flagNTValid = 1 << 3
)

func (e *entry) conf() uint8   { return e.flags & confMask }
func (e *entry) delta() bool   { return e.flags&flagDelta != 0 }
func (e *entry) ntValid() bool { return e.flags&flagNTValid != 0 }

// setFlag sets or clears one of flagDelta and flagNTValid.
func (e *entry) setFlag(f uint8, on bool) {
	if on {
		e.flags |= f
	} else {
		e.flags &^= f
	}
}

// New builds a PDede BTB.
func New(cfg Config) (*PDede, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pages, err := btb.NewDedupTable(cfg.PageEntries, cfg.PageWays)
	if err != nil {
		return nil, fmt.Errorf("pdede: page table: %w", err)
	}
	regions, err := btb.NewDedupTable(cfg.RegionEntries, cfg.RegionEntries)
	if err != nil {
		return nil, fmt.Errorf("pdede: region table: %w", err)
	}
	p := &PDede{
		cfg:       cfg,
		name:      cfg.Variant.String(),
		indexBits: uint(bits.TrailingZeros(uint(cfg.Sets))),
		halfWays:  cfg.Ways,
		tags:      btb.NewTagWords(cfg.Sets * cfg.Ways),
		entries:   make([]entry, cfg.Sets*cfg.Ways),
		repl:      btb.NewSRRIPSets(cfg.Sets, cfg.Ways, 2),
		pages:     pages,
		regions:   regions,
	}
	if cfg.DisableDelta {
		p.name = "pdede-partition-only"
	}
	if cfg.Variant == MultiEntry {
		p.halfWays = cfg.Ways / 2
	}
	if cfg.Variant == MultiTarget {
		depth := cfg.NTLastRegisters
		if depth == 0 {
			depth = 1
		}
		p.lastRing = make([]int, depth)
		for i := range p.lastRing {
			p.lastRing[i] = -1
		}
	}
	p.fullCandidates = make([]int, p.halfWays)
	for i := range p.fullCandidates {
		p.fullCandidates[i] = i
	}
	return p, nil
}

// Name implements btb.TargetPredictor.
func (p *PDede) Name() string { return p.name }

// Config returns the configuration.
func (p *PDede) Config() Config { return p.cfg }

// narrow reports whether way w holds narrow (same-page-only) entries.
func (p *PDede) narrow(w int) bool { return w >= p.halfWays }

// Lookup implements btb.TargetPredictor (§4.4.1).
func (p *PDede) Lookup(pc addr.VA) btb.Lookup {
	set, tag := addr.IndexTag(pc, p.indexBits, btb.TagBits)
	base := int(set) * p.cfg.Ways
	w := p.tags.Find(base, p.cfg.Ways, tag)
	p.memoPC, p.memoSet, p.memoTag, p.memoWay, p.memoOK = pc, set, tag, int32(w), true

	armNext := false
	var armOffset uint16
	result := btb.Lookup{}
	if w >= 0 {
		e := &p.entries[base+w]
		if e.delta() {
			// Same-page: concatenate the PC's page with the stored offset;
			// no Page/Region access, no extra cycle.
			result = btb.Lookup{Hit: true, Target: pc.WithOffset(addr.PageOffset(e.offset))}
			if e.ntValid() {
				armNext, armOffset = true, e.ntOffset
			}
		} else {
			pv, okP := p.pages.Get(int(e.pagePtr))
			rv, okR := p.regions.Get(int(e.regionPtr))
			if okP && okR {
				result = btb.Lookup{
					Hit:          true,
					Target:       addr.Build(addr.RegionID(rv), addr.PageNum(pv), addr.PageOffset(e.offset)),
					ExtraLatency: 1,
				}
			}
		}
	}

	if w < 0 && p.cfg.Variant == MultiTarget && p.ntArmed {
		// BTBM miss served from the Next Target Offset register: the next
		// taken branch after the arming entry shares its page, so the
		// missing PC's own page completes the target.
		result = btb.Lookup{Hit: true, Target: pc.WithOffset(addr.PageOffset(p.ntOffset))}
		p.Stats.NTServed++
	}
	// The register serves exactly the lookup following the arming hit.
	p.ntArmed, p.ntOffset = armNext, armOffset

	if result.Hit && p.cfg.ExtraCycleAlways {
		result.ExtraLatency = 1
	}
	return result
}

// Update implements btb.TargetPredictor (§4.4.2).
func (p *PDede) Update(br isa.Branch, prior btb.Lookup) {
	if !br.Taken {
		return
	}
	if br.Kind.IsReturn() && !p.cfg.StoreReturns {
		return
	}
	set, tag, w := p.probe(br.PC)
	base := int(set) * p.cfg.Ways
	samePage := br.PC.SamePage(br.Target) && !p.cfg.DisableDelta

	if w >= 0 {
		e := &p.entries[base+w]
		p.repl.Touch(int(set), w)
		if pred, ok := p.predictFrom(e, br.PC); ok && pred == br.Target {
			if e.conf() < 3 {
				e.flags++ // the counter is the low bits
			}
			if !e.delta() {
				p.pages.Touch(int(e.pagePtr))
				p.regions.Touch(int(e.regionPtr))
			}
			p.noteMultiTarget(br, set, w, samePage)
			return
		}
		// Stale pointer repair: if the stored offset still matches but the
		// Page/Region pointer dereferences to the wrong component (the
		// pointed-at entry was reused by another value, §4.4.2), re-wire the
		// pointers in place. The update already has the full target, so this
		// costs no extra hardware and avoids paying the confidence
		// hysteresis for what is not a target change.
		if !e.delta() && !samePage && e.offset == uint16(br.Target.Offset()) {
			pp, rp, ok := p.allocPartition(br.Target)
			if ok {
				p.Stats.StaleRepairs++
				e.pagePtr = uint16(pp)
				e.regionPtr = uint8(rp)
				p.noteMultiTarget(br, set, w, samePage)
				return
			}
		}
		// Wrong or unreadable target: give confident entries a grace
		// period (indirect branches flip between targets).
		if e.conf() > 0 {
			e.flags-- // the counter is the low bits
			p.noteMultiTarget(br, set, w, samePage)
			return
		}
		p.Stats.Retrains++
		if samePage {
			e.setFlag(flagDelta, true)
			e.offset = uint16(br.Target.Offset())
			e.setFlag(flagNTValid, false)
			p.noteMultiTarget(br, set, w, samePage)
			return
		}
		if p.narrow(w) {
			// A narrow way cannot describe a different-page target:
			// invalidate and fall through to a fresh allocation in the
			// full ways.
			p.tags.Free(base + w)
			w = -1
		} else {
			pp, rp, ok := p.allocPartition(br.Target)
			if !ok {
				return
			}
			e.setFlag(flagDelta, false)
			e.offset = uint16(br.Target.Offset())
			e.pagePtr = uint16(pp)
			e.regionPtr = uint8(rp)
			e.setFlag(flagNTValid, false)
			p.noteMultiTarget(br, set, w, samePage)
			return
		}
	}

	// Allocation path. Different-page branches allocate their Page/Region
	// entries first; only on success is the BTBM entry created (§4.4.2).
	var pp, rp int
	if !samePage {
		var ok bool
		pp, rp, ok = p.allocPartition(br.Target)
		if !ok {
			return
		}
	}
	w = p.victim(set, samePage)
	if w < 0 {
		return
	}
	p.tags.Set(base+w, tag)
	e := entry{
		offset:    uint16(br.Target.Offset()),
		pagePtr:   uint16(pp),
		regionPtr: uint8(rp),
	}
	e.setFlag(flagDelta, samePage)
	p.entries[base+w] = e
	p.repl.Insert(int(set), w)
	p.noteMultiTarget(br, set, w, samePage)
}

// probe resolves pc's (set, tag, matched way), reusing the Lookup memo when
// Update immediately follows Lookup for the same PC and re-deriving
// otherwise. The memo is consumed either way: the caller mutates the set.
func (p *PDede) probe(pc addr.VA) (set addr.SetIndex, tag addr.Tag, way int) {
	if p.memoOK && p.memoPC == pc {
		p.memoOK = false
		return p.memoSet, p.memoTag, int(p.memoWay)
	}
	p.memoOK = false
	set, tag = addr.IndexTag(pc, p.indexBits, btb.TagBits)
	return set, tag, p.tags.Find(int(set)*p.cfg.Ways, p.cfg.Ways, tag)
}

// predictFrom reconstructs the target an entry currently encodes.
func (p *PDede) predictFrom(e *entry, pc addr.VA) (addr.VA, bool) {
	if e.delta() {
		return pc.WithOffset(addr.PageOffset(e.offset)), true
	}
	pv, okP := p.pages.Get(int(e.pagePtr))
	rv, okR := p.regions.Get(int(e.regionPtr))
	if !okP || !okR {
		return 0, false
	}
	return addr.Build(addr.RegionID(rv), addr.PageNum(pv), addr.PageOffset(e.offset)), true
}

// allocPartition ensures the target's page and region components exist in
// the dedup tables, returning their pointers.
func (p *PDede) allocPartition(target addr.VA) (pagePtr, regionPtr int, ok bool) {
	pp, _ := p.pages.FindOrInsert(uint64(target.Page()))
	rp, _ := p.regions.FindOrInsert(uint64(target.Region()))
	return pp, rp, true
}

// victim picks the way to allocate for a new entry. Same-page branches may
// use any way but prefer narrow ones (keeping full ways free for branches
// that need pointers); different-page branches are restricted to full ways
// (§4.4.2, MultiEntry).
func (p *PDede) victim(set addr.SetIndex, samePage bool) int {
	base := int(set) * p.cfg.Ways
	if samePage {
		for w := p.cfg.Ways - 1; w >= 0; w-- { // narrow ways sit at the top
			if !p.tags.Live(base + w) {
				return w
			}
		}
		return p.repl.Victim(int(set), nil)
	}
	for w := 0; w < p.halfWays; w++ {
		if !p.tags.Live(base + w) {
			return w
		}
	}
	return p.repl.Victim(int(set), p.fullCandidates)
}

// noteMultiTarget maintains the Last BTBM set/way register ring and plants
// the next-target offset into ringed same-page predecessors (§4.3.1; ring
// depth > 1 is the paper's future-work extension).
func (p *PDede) noteMultiTarget(br isa.Branch, set addr.SetIndex, way int, samePage bool) {
	if p.cfg.Variant != MultiTarget {
		return
	}
	cur := int(set)*p.cfg.Ways + way
	if samePage {
		off := uint16(br.Target.Offset())
		for _, idx := range p.lastRing {
			if idx < 0 || idx == cur {
				continue
			}
			prev := &p.entries[idx]
			if p.tags.Live(idx) && prev.delta() {
				prev.setFlag(flagNTValid, true)
				prev.ntOffset = off
			}
		}
		p.lastRing[p.lastPos] = cur
		p.lastPos = (p.lastPos + 1) % len(p.lastRing)
		return
	}
	// A different-page branch breaks the same-page chain.
	for i := range p.lastRing {
		p.lastRing[i] = -1
	}
	p.lastPos = 0
}

// FullEntryBits returns the storage of one full BTBM entry: PID(1) +
// tag(12) + SRRIP(2) + conf(2) + delta(1) + offset(12) + page pointer +
// region pointer (+1 next-target bit for MultiTarget).
func (p *PDede) FullEntryBits() uint64 {
	b := uint64(1+btb.TagBits+2+2+1+12) + p.pages.PtrBits() + p.regions.PtrBits()
	if p.cfg.Variant == MultiTarget {
		b++ // NT bit; the next-target offset reuses the pointer fields
	}
	return b
}

// NarrowEntryBits returns the storage of one narrow (same-page-only) entry.
func (p *PDede) NarrowEntryBits() uint64 {
	return uint64(1 + btb.TagBits + 2 + 2 + 1 + 12)
}

// StorageBits implements btb.TargetPredictor.
func (p *PDede) StorageBits() uint64 {
	full := uint64(p.cfg.Sets * p.halfWays)
	narrow := uint64(p.cfg.Sets * (p.cfg.Ways - p.halfWays))
	return full*p.FullEntryBits() + narrow*p.NarrowEntryBits() +
		p.pages.StorageBits(addr.PageBits) +
		p.regions.StorageBits(addr.RegionBits)
}

// Entries returns the BTBM capacity.
func (p *PDede) Entries() int { return p.cfg.Sets * p.cfg.Ways }

// Reset implements btb.TargetPredictor.
func (p *PDede) Reset() {
	p.memoOK = false
	p.tags.Reset()
	for i := range p.entries {
		p.entries[i] = entry{}
	}
	p.repl.Reset()
	p.pages.Reset()
	p.regions.Reset()
	p.ntArmed = false
	for i := range p.lastRing {
		p.lastRing[i] = -1
	}
	p.lastPos = 0
	p.Stats = Stats{}
}

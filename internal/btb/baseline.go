package btb

import (
	"fmt"
	"math/bits"

	"repro/internal/addr"
	"repro/internal/isa"
)

// Baseline is the conventional BTB described in §2: set-associative, probed
// with a hashed PC, carrying a restricted 12-bit tag, a full 57-bit target,
// a 2-bit confidence counter and SRRIP replacement. Only taken branches
// allocate entries (not-taken fallthroughs are computed trivially).
type Baseline struct {
	name string
	sets int
	ways int

	indexBits uint
	tags      TagWords    // sets × ways; the only record of which ways are live
	entries   []baseEntry // sets × ways

	// srrip orders replacement under PolicySRRIP, and is GHRP's fallback
	// order; repl holds per-set state instead under LRU and random.
	srrip SRRIPSets
	repl  []replacer

	// GHRP state (only when Policy == PolicyGHRP): per-set predictive
	// replacement plus the shared signature tables, and a per-entry
	// reused-since-insertion bit used to train deadness.
	ghrp       []*ghrpRepl
	ghrpShared *ghrpTables
	reused     []bool

	// Probe memo: Lookup leaves its decomposed (set, tag) and matched way
	// for the immediately following Update of the same PC (the BPU's
	// probe→train sequence), which then skips the re-hash and re-scan.
	// One-shot: every Update consumes or invalidates it, because updates
	// mutate set contents. Scratch, not architectural: a wrong-path lookup
	// overwriting the memo only costs the next Update a re-probe.
	//
	//pdede:scratch
	memoPC addr.VA
	//pdede:scratch
	memoSet addr.SetIndex
	//pdede:scratch
	memoTag addr.Tag
	//pdede:scratch
	memoWay int32 // matched way, -1 on miss
	//pdede:scratch
	memoOK bool

	// storeReturns mirrors §5.7: if set, returns also allocate (no RAS).
	storeReturns bool
}

// baseEntry is a live way's payload; its tag and valid bit are the way's
// tag word. The 4096-entry array is the baseline's dominant allocation, at
// 16 bytes per entry.
type baseEntry struct {
	target addr.VA
	conf   conf
}

// BaselineConfig sizes a baseline BTB.
type BaselineConfig struct {
	// Entries is the total entry count (must be sets*ways with sets a power
	// of two). The paper's baseline is 4096 entries, 8-way: 37.5 KiB.
	Entries int
	// Ways is the associativity (default 8).
	Ways int
	// StoreReturns also allocates return instructions (§5.7).
	StoreReturns bool
	// Policy selects the replacement policy (default SRRIP, as in the
	// paper; LRU and random support the replacement ablation).
	Policy PolicyKind
}

// NewBaseline builds the baseline BTB.
func NewBaseline(cfg BaselineConfig) (*Baseline, error) {
	if cfg.Ways == 0 {
		cfg.Ways = 8
	}
	if cfg.Entries <= 0 || cfg.Entries%cfg.Ways != 0 {
		return nil, fmt.Errorf("btb: entries %d not divisible by ways %d", cfg.Entries, cfg.Ways)
	}
	sets := cfg.Entries / cfg.Ways
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("btb: baseline sets %d not a power of two", sets)
	}
	b := &Baseline{
		name:         fmt.Sprintf("baseline-%dK", cfg.Entries/1024),
		sets:         sets,
		ways:         cfg.Ways,
		indexBits:    uint(bits.TrailingZeros(uint(sets))),
		tags:         NewTagWords(cfg.Entries),
		entries:      make([]baseEntry, cfg.Entries),
		storeReturns: cfg.StoreReturns,
	}
	if cfg.Entries < 1024 {
		b.name = fmt.Sprintf("baseline-%d", cfg.Entries)
	}
	if cfg.Policy != PolicySRRIP {
		b.name += "-" + cfg.Policy.String()
	}
	switch cfg.Policy {
	case PolicySRRIP:
		b.srrip = NewSRRIPSets(sets, cfg.Ways, baselineRRIPBits)
	case PolicyGHRP:
		b.srrip = NewSRRIPSets(sets, cfg.Ways, ghrpRRIPBits)
		b.ghrpShared = newGHRPTables()
		b.ghrp = make([]*ghrpRepl, sets)
		b.reused = make([]bool, cfg.Entries)
		for i := range b.ghrp {
			b.ghrp[i] = newGHRPRepl(cfg.Ways, b.ghrpShared)
		}
	default:
		b.repl = make([]replacer, sets)
		for i := range b.repl {
			b.repl[i] = newReplacer(cfg.Policy, cfg.Ways)
		}
	}
	return b, nil
}

// Name implements TargetPredictor.
func (b *Baseline) Name() string { return b.name }

// Lookup implements TargetPredictor.
//
//pdede:hot
func (b *Baseline) Lookup(pc addr.VA) Lookup {
	set, tag := addr.IndexTag(pc, b.indexBits, TagBits)
	base := int(set) * b.ways
	w := b.tags.Find(base, b.ways, tag)
	b.memoPC, b.memoSet, b.memoTag, b.memoWay, b.memoOK = pc, set, tag, int32(w), true
	if w < 0 {
		return Lookup{}
	}
	return Lookup{Hit: true, Target: b.entries[base+w].target}
}

// probe resolves pc's (set, tag, matched way), reusing the Lookup memo when
// Update immediately follows Lookup for the same PC and re-deriving
// otherwise. The memo is consumed either way: the caller mutates the set.
//
//pdede:hot
func (b *Baseline) probe(pc addr.VA) (set addr.SetIndex, tag addr.Tag, way int) {
	if b.memoOK && b.memoPC == pc {
		b.memoOK = false
		return b.memoSet, b.memoTag, int(b.memoWay)
	}
	b.memoOK = false
	set, tag = addr.IndexTag(pc, b.indexBits, TagBits)
	return set, tag, b.tags.Find(int(set)*b.ways, b.ways, tag)
}

// Update implements TargetPredictor. Taken branches allocate or retrain
// their entry; the confidence counter arbitrates target replacement for
// branches with multiple observed targets (indirects).
//
//pdede:hot
func (b *Baseline) Update(br isa.Branch, prior Lookup) {
	if !br.Taken {
		return
	}
	if br.Kind.IsReturn() && !b.storeReturns {
		return
	}
	set, tag, hit := b.probe(br.PC)
	base := int(set) * b.ways
	if hit >= 0 {
		w := hit
		e := &b.entries[base+w]
		if b.repl != nil {
			b.repl[set].Touch(w)
		} else {
			b.srrip.Touch(int(set), w)
		}
		if b.ghrp != nil {
			b.ghrp[set].touchPC(w, br.PC)
			b.reused[base+w] = true
		}
		if e.target == br.Target {
			e.conf = e.conf.inc()
			return
		}
		// Wrong target stored: decay confidence; replace the target only
		// once confidence is exhausted (protects dominant indirect targets).
		if e.conf > 0 {
			e.conf = e.conf.dec()
			return
		}
		e.target = br.Target
		e.conf = 0
		return
	}
	// Allocate.
	w := b.victim(set)
	b.tags.Set(base+w, tag)
	b.entries[base+w] = baseEntry{target: br.Target}
	if b.repl != nil {
		b.repl[set].Insert(w)
	} else {
		b.srrip.Insert(int(set), w)
	}
	if b.ghrp != nil {
		b.ghrp[set].insertPC(w, br.PC, b.reused[base+w])
		b.reused[base+w] = false
	}
}

//pdede:hot
func (b *Baseline) victim(set addr.SetIndex) int {
	base := int(set) * b.ways
	for w := 0; w < b.ways; w++ {
		if !b.tags.Live(base + w) {
			return w
		}
	}
	if b.repl != nil {
		return b.repl[set].Victim()
	}
	if b.ghrp != nil {
		if w := b.ghrp[set].deadWay(); w >= 0 {
			return w
		}
	}
	return b.srrip.Victim(int(set), nil)
}

// EntryBits returns the storage per baseline entry (Figure 2 layout; the
// replacement metadata cost follows the configured policy).
func (b *Baseline) EntryBits() uint64 {
	switch {
	case b.ghrp != nil:
		return pidBits + TagBits + targetBits + confBits + b.ghrp[0].bits() + 1 // +reused
	case b.repl != nil:
		return pidBits + TagBits + targetBits + b.repl[0].Bits() + confBits
	default:
		return pidBits + TagBits + targetBits + b.srrip.Bits() + confBits
	}
}

// StorageBits implements TargetPredictor.
func (b *Baseline) StorageBits() uint64 {
	bits := uint64(b.sets*b.ways) * b.EntryBits()
	if b.ghrpShared != nil {
		bits += uint64(len(b.ghrpShared.t1)+len(b.ghrpShared.t2)) * 2
	}
	return bits
}

// Entries returns the total capacity in entries.
func (b *Baseline) Entries() int { return b.sets * b.ways }

// Reset implements TargetPredictor.
func (b *Baseline) Reset() {
	b.memoOK = false
	b.tags.Reset()
	for i := range b.entries {
		b.entries[i] = baseEntry{}
	}
	b.srrip.Reset()
	for _, r := range b.repl {
		r.Reset()
	}
	if b.ghrp != nil {
		for _, g := range b.ghrp {
			g.reset()
		}
		*b.ghrpShared = *newGHRPTables()
		for i := range b.reused {
			b.reused[i] = false
		}
	}
}

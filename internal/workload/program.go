package workload

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/isa"
	"repro/internal/rng"
)

// Site is one static branch site inside a function. Execution walks a
// function's sites in order; loop back-edges, forward jumps and indirect
// jumps redirect the walk by site index, so the emitted (PC, target, taken)
// stream is always internally consistent with the generated addresses.
type Site struct {
	// BlockStart is the address of the first instruction of the basic block
	// that ends at this site.
	BlockStart addr.VA
	// PC is the branch instruction address: BlockStart + (BlockLen-1)*4.
	PC addr.VA
	// BlockLen is the block's instruction count including the branch.
	BlockLen uint16
	// Kind classifies the site.
	Kind isa.Kind

	// Target is the static target for direct sites.
	Target addr.VA
	// TakenP is the taken probability of a non-loop conditional.
	TakenP float64
	// LoopTo ≥ 0 makes a conditional a loop back-edge to that site index.
	LoopTo int
	// TripMean is this loop's mean trip count.
	TripMean int
	// SkipTo ≥ 0 redirects an unconditional direct jump to that site index.
	SkipTo int
	// Callee ≥ 0 is the callee function index of a direct call.
	Callee int
	// Callees are the candidate callee function indices of an indirect call.
	Callees []int
	// JumpTo are the candidate destination site indices of an indirect jump,
	// with JumpTargets the corresponding addresses.
	JumpTo      []int
	JumpTargets []addr.VA
}

// Func is a synthetic function: a contiguous code range holding an ordered
// list of branch sites and an implicit return.
type Func struct {
	// Index is the function's position in Program.Funcs.
	Index int
	// Entry is the first instruction of the function.
	Entry addr.VA
	// RetPC is the return instruction address (after the last site's block).
	RetPC addr.VA
	// RetBlockLen is the size of the block ending at the return.
	RetBlockLen uint16
	// Sites are the function's branch sites in address order.
	Sites []Site
	// Region is the region index the function lives in.
	Region int
}

// Program is a fully synthesized static application.
type Program struct {
	Cfg Config
	// Funcs is the function list; dispatch weights are Zipf over this order
	// (index 0 is the hottest function).
	Funcs []*Func
	// RegionIDs are the distinct 27-bit region identifiers in use
	// (index 0 is the driver's region).
	RegionIDs []addr.RegionID
	// DriverCallPC / DriverLoopPC form the dispatch loop that drives
	// execution: an indirect call followed by a loop-back conditional.
	DriverCallPC    addr.VA
	DriverCallBlock addr.VA
	DriverLoopPC    addr.VA
}

// NewProgram synthesizes the static structure of an application.
func NewProgram(cfg Config) (*Program, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	src := rng.New(cfg.Seed)
	layoutRNG := src.Fork(1)
	siteRNG := src.Fork(2)

	nf := cfg.NumFunctions()
	p := &Program{Cfg: cfg}

	// --- Regions. Functions are grouped into contiguous runs that share a
	// region, like libraries. Region IDs are random 27-bit values (ASLR),
	// so regions are separated by huge distances.
	funcBytes := float64(cfg.SitesPerFunc*cfg.BlockLenMean*isa.InstrBytes) * cfg.PageSpread
	totalPages := int(float64(nf)*funcBytes/4096) + 1
	numRegions := (totalPages + cfg.PagesPerRegion - 1) / cfg.PagesPerRegion
	if numRegions < 2 {
		numRegions = 2
	}
	// Applications traverse very few regions (paper: regions are ~100×
	// rarer than pages, and the 4-entry Region-BTB suffices). Large code
	// footprints therefore use *denser* regions rather than more of them.
	if numRegions > 6 {
		numRegions = 6
	}
	seen := make(map[uint64]bool)
	for len(p.RegionIDs) < numRegions+1 { // +1 for the driver region
		id := layoutRNG.Uint64() & ((1 << addr.RegionBits) - 1)
		if id == 0 || seen[id] {
			continue
		}
		seen[id] = true
		p.RegionIDs = append(p.RegionIDs, addr.RegionID(id))
	}

	// --- Driver: its own page in region 0.
	driverBase := addr.Build(p.RegionIDs[0], 8, 0)
	p.DriverCallBlock = driverBase
	p.DriverCallPC = driverBase.Add(3 * isa.InstrBytes) // 4-instr block
	p.DriverLoopPC = p.DriverCallPC.Add(3 * isa.InstrBytes)

	// --- Function placement. Functions are packed at byte granularity —
	// several small functions share a page, which is what produces the
	// paper's ~18 branch targets per page — with PageSpread-controlled gaps
	// between them, and occasional page-skips that leave unused pages
	// (sparse address-space population).
	p.Funcs = make([]*Func, 0, nf)
	region := 1
	cursor := uint64(2 * 4096) // byte offset within the region; low pages unused
	startPage := cursor >> 12
	for i := 0; i < nf; i++ {
		if int(cursor>>12-startPage) >= cfg.PagesPerRegion && region < numRegions {
			region++
			cursor = uint64(2+layoutRNG.Intn(8)) * 4096
			startPage = cursor >> 12
		}
		f := &Func{Index: i, Region: region}
		f.Entry = addr.Build(p.RegionIDs[region], addr.PageNum(cursor>>12), addr.PageOffset(cursor&0xfff))
		sites := cfg.SitesPerFunc/2 + layoutRNG.Intn(cfg.SitesPerFunc) // ~SitesPerFunc mean
		if sites < 2 {
			sites = 2
		}
		buildFunctionBody(cfg, siteRNG, f, sites)
		p.Funcs = append(p.Funcs, f)

		fnBytes := uint64(f.RetPC-f.Entry) + isa.InstrBytes
		gap := uint64(float64(fnBytes)*(cfg.PageSpread-1)) + uint64(layoutRNG.Intn(16))*isa.InstrBytes
		cursor += (fnBytes + gap + 3) &^ 3
		if layoutRNG.Bool(0.08) {
			// Skip ahead a few pages, leaving a hole.
			cursor = (cursor>>12 + uint64(1+layoutRNG.Intn(4))) << 12
		}
		if cursor>>12 >= (1<<addr.PageBits)-64 {
			// Region overflow (extremely spread layouts): move on.
			region++
			if region > numRegions {
				return nil, fmt.Errorf("workload %s: layout overflow, too few regions", cfg.Name)
			}
			cursor = 2 * 4096
			startPage = cursor >> 12
		}
	}

	// Wire call targets now that all entries exist.
	wireCalls(cfg, siteRNG, p)
	return p, nil
}

// buildFunctionBody lays out nSites blocks contiguously from f.Entry and
// assigns branch kinds and intra-function targets.
func buildFunctionBody(cfg Config, r *rng.Source, f *Func, nSites int) {
	f.Sites = make([]Site, nSites)
	pos := f.Entry
	for i := 0; i < nSites; i++ {
		bl := uint16(r.Geometric(1/float64(cfg.BlockLenMean), 24))
		if bl < 2 {
			bl = 2
		}
		s := &f.Sites[i]
		s.BlockStart = pos
		s.BlockLen = bl
		s.PC = pos.Add(uint64(bl-1) * isa.InstrBytes)
		s.LoopTo, s.SkipTo, s.Callee = -1, -1, -1
		pos = s.PC.Add(isa.InstrBytes)
	}
	f.RetBlockLen = 2
	f.RetPC = pos.Add(uint64(f.RetBlockLen-1) * isa.InstrBytes)

	// Kind assignment and intra-function targets.
	for i := range f.Sites {
		s := &f.Sites[i]
		switch {
		case r.Bool(cfg.CondFrac):
			s.Kind = isa.CondDirect
			assignCondTarget(cfg, r, f, i)
		case r.Bool(cfg.CallFrac):
			if r.Bool(cfg.IndirectFrac) {
				s.Kind = isa.IndirectCall
			} else {
				s.Kind = isa.DirectCall
			}
			// Targets wired in wireCalls.
		default:
			switch {
			case r.Bool(cfg.IndirectFrac) && i < len(f.Sites)-1:
				s.Kind = isa.IndirectJump
				assignIndirectJump(r, f, i)
			case i < len(f.Sites)-1:
				s.Kind = isa.UncondDirect
				assignUncondTarget(r, f, i)
			default:
				// The last site falls through to the return block; an
				// unconditional jump there would be a no-op jump to its own
				// fallthrough, so make it a biased conditional instead.
				s.Kind = isa.CondDirect
				assignCondTarget(cfg, r, f, i)
			}
		}
	}
}

// assignCondTarget makes site i a loop back-edge or a forward conditional
// and picks its target, honouring SamePageBias and ShareTargets.
func assignCondTarget(cfg Config, r *rng.Source, f *Func, i int) {
	s := &f.Sites[i]
	if i > 0 && r.Bool(cfg.LoopFrac) {
		// Loop back-edge to an earlier site, preferring a nearby one (tight
		// inner loops) which also keeps the target in the same page.
		back := 1 + r.Geometric(0.5, i)
		if back > i {
			back = i
		}
		j := i - back
		if r.Bool(cfg.SamePageBias) {
			// Pull the back target into the same page if the preferred one
			// crossed a boundary.
			for j < i && !f.Sites[j].BlockStart.SamePage(s.PC) {
				j++
			}
			if j == i {
				j = i - back
			}
		}
		s.LoopTo = j
		s.Target = f.Sites[j].BlockStart
		// Trip counts are mostly stable per site (loop bounds rarely change
		// between invocations), which lets history predictors learn exits.
		s.TripMean = 1 + r.Geometric(1/float64(cfg.TripMean), 16*cfg.TripMean)
		return
	}
	// Forward conditional: bimodal bias. Most conditionals are strongly
	// biased (well-predicted by TAGE); a small fraction are genuinely
	// data-dependent coin flips.
	switch {
	case r.Bool(cfg.BiasTakenFrac):
		s.TakenP = 0.99
	case r.Bool(cfg.BiasNotFrac / (1 - cfg.BiasTakenFrac)):
		// Error-handling/guard branches: execute often, almost never taken.
		s.TakenP = 0.004
	default:
		s.TakenP = 0.3 + 0.4*r.Float64()
	}
	s.Target = pickForwardTarget(cfg, r, f, i)
}

// assignUncondTarget gives an unconditional jump a short forward skip of at
// least two blocks (a one-block skip would target the jump's own
// fallthrough, which no compiler emits).
func assignUncondTarget(r *rng.Source, f *Func, i int) {
	s := &f.Sites[i]
	j := i + 1 + r.Geometric(0.6, 3)
	if j < len(f.Sites) {
		s.SkipTo = j
		s.Target = f.Sites[j].BlockStart
		return
	}
	// Jump over the remaining sites straight to the return block.
	s.Target = f.RetPC.Add(-uint64((f.RetBlockLen - 1) * isa.InstrBytes))
	s.SkipTo = len(f.Sites) // sentinel: proceed to return
}

// assignIndirectJump gives a switch-style site 2..6 forward destinations.
func assignIndirectJump(r *rng.Source, f *Func, i int) {
	s := &f.Sites[i]
	n := 2 + r.Intn(5)
	for k := 0; k < n; k++ {
		j := i + 1 + r.Intn(len(f.Sites)-i-1)
		s.JumpTo = append(s.JumpTo, j)
		s.JumpTargets = append(s.JumpTargets, f.Sites[j].BlockStart)
	}
}

// pickForwardTarget selects a non-redirecting conditional target: same-page
// with probability SamePageBias, shared with probability ShareTargets.
func pickForwardTarget(cfg Config, r *rng.Source, f *Func, i int) addr.VA {
	s := &f.Sites[i]
	// Share an existing conditional target in this function when possible.
	if r.Bool(cfg.ShareTargets) {
		for tries := 0; tries < 4; tries++ {
			j := r.Intn(len(f.Sites))
			t := f.Sites[j].Target
			if j != i && t != 0 && f.Sites[j].Kind == isa.CondDirect {
				if !r.Bool(cfg.SamePageBias) || t.SamePage(s.PC) {
					return t
				}
			}
		}
	}
	if r.Bool(cfg.SamePageBias) {
		// A block start shortly after i, same page if one exists.
		for d := 1; d <= 4 && i+d < len(f.Sites); d++ {
			if f.Sites[i+d].BlockStart.SamePage(s.PC) {
				return f.Sites[i+d].BlockStart
			}
		}
		// Fall back to an instruction-aligned address elsewhere in the
		// branch's own page.
		return s.PC.WithOffset((s.PC.Offset() + addr.PageOffset(isa.InstrBytes*uint64(1+r.Intn(64)))) & 0xfff &^ 3)
	}
	// Cross-page target: a later site's block in this function, or the
	// return block.
	for d := 1; d <= 8 && i+d < len(f.Sites); d++ {
		if !f.Sites[i+d].BlockStart.SamePage(s.PC) {
			return f.Sites[i+d].BlockStart
		}
	}
	return f.RetPC
}

// wireCalls assigns callees to all call sites across the program. Direct
// calls prefer same-region callees except for CrossRegionCallFrac library
// calls; indirect calls get 2..6 candidate callees. Hot functions (low
// indices) are preferred, concentrating the dynamic call graph.
func wireCalls(cfg Config, r *rng.Source, p *Program) {
	nf := len(p.Funcs)
	// Cross-region calls concentrate on the first couple of regions (the
	// hot shared libraries): real call graphs route cross-library traffic
	// through a small service core, which is what keeps the dynamic region
	// working set tiny even when calls cross regions constantly.
	hotSpan := nf
	for _, f := range p.Funcs {
		if f.Region > 2 {
			hotSpan = f.Index
			break
		}
	}
	// Functions are laid out sequentially, so each region owns a contiguous
	// index span; same-region picks draw directly from the caller's span
	// (an accept-reject loop over all functions would leak calls into
	// random regions and thrash the 4-entry Region-BTB).
	spanStart := make(map[int]int)
	spanEnd := make(map[int]int)
	for _, f := range p.Funcs {
		if _, ok := spanStart[f.Region]; !ok {
			spanStart[f.Region] = f.Index
		}
		spanEnd[f.Region] = f.Index + 1
	}
	pick := func(from *Func) int {
		for tries := 0; ; tries++ {
			// Frontend-bound applications have famously flat profiles: the
			// call graph fans out broadly instead of funnelling into a tiny
			// hot core, which is exactly what makes their branch working
			// sets exceed the BTB.
			u := r.Float64()
			if r.Bool(cfg.CrossRegionCallFrac) {
				// Cross-region: land uniformly in the hot-library span.
				j := int(u * float64(hotSpan))
				if j >= nf {
					j = nf - 1
				}
				if j != from.Index {
					return j
				}
				continue
			}
			lo, hi := spanStart[from.Region], spanEnd[from.Region]
			j := lo + int(u*float64(hi-lo))
			if j >= hi {
				j = hi - 1
			}
			if j != from.Index {
				return j
			}
			if hi-lo <= 1 || tries > 8 {
				return (j + 1) % nf
			}
		}
	}
	for _, f := range p.Funcs {
		for i := range f.Sites {
			s := &f.Sites[i]
			switch s.Kind {
			case isa.DirectCall:
				s.Callee = pick(f)
				s.Target = p.Funcs[s.Callee].Entry
			case isa.IndirectCall:
				n := 2 + r.Intn(5)
				for k := 0; k < n; k++ {
					s.Callees = append(s.Callees, pick(f))
				}
			}
		}
	}
}

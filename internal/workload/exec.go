package workload

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/isa"
	"repro/internal/rng"
	"repro/internal/trace"
)

// Executor runs a Program, emitting a dynamic branch trace. Execution is a
// dispatch loop: the driver indirect-calls a Zipf-chosen function; functions
// walk their sites, looping on back-edges, descending into callees and
// returning to their callers. All randomness is derived from the program
// seed, so the trace for a given Config is reproducible bit-for-bit.
type Executor struct {
	p     *Program
	r     *rng.Source
	zipf  *rng.Zipf
	out   []isa.Branch
	count uint64 // instructions emitted so far
	limit uint64

	// dispatchStart marks e.count at the current driver dispatch; once a
	// dispatch exceeds Config.DispatchInstrs, further calls are treated as
	// leaves so that one dispatch cannot consume the whole trace budget
	// (unbounded call trees otherwise explode combinatorially through
	// call-in-loop sites).
	dispatchStart uint64
}

// newExecutor prepares a run of the program's dynamic walk.
func newExecutor(p *Program, totalInstrs uint64) *Executor {
	e := &Executor{
		p:     p,
		r:     rng.New(p.Cfg.Seed).Fork(3),
		limit: totalInstrs,
	}
	e.zipf = rng.NewZipf(e.r.Fork(1), len(p.Funcs), p.Cfg.HotTheta)
	return e
}

// Execute builds the program's dynamic trace with approximately
// totalInstrs instructions (the trace ends at the first function return to
// the driver after the budget is reached).
func Execute(p *Program, totalInstrs uint64) *trace.Memory {
	e := newExecutor(p, totalInstrs)
	e.out = make([]isa.Branch, 0, totalInstrs/4)
	e.run()
	return &trace.Memory{TraceName: p.Cfg.Name, Records: e.out}
}

// run drives the dispatch loop until the instruction budget is spent.
func (e *Executor) run() {
	p := e.p

	// Execution has region-level phases: programs run inside one library
	// (region) for extended stretches before migrating (Figure 5a shows
	// exactly this temporal locality). Dispatch therefore sticks to the
	// current region and only occasionally follows a draw into another one.
	// The hottest functions (the application binary itself) stay active
	// throughout; phases move across the library regions.
	coreRegion := p.Funcs[0].Region
	curRegion := coreRegion
	for e.count < e.limit {
		callee := e.zipf.Next()
		if r := p.Funcs[callee].Region; r != curRegion && r != coreRegion {
			if e.r.Bool(0.97) {
				// Stay in phase: redraw until a same-region function comes up.
				stayed := false
				for tries := 0; tries < 24; tries++ {
					c := e.zipf.Next()
					if r := p.Funcs[c].Region; r == curRegion || r == coreRegion {
						callee, stayed = c, true
						break
					}
				}
				if !stayed {
					curRegion = p.Funcs[callee].Region
				}
			} else {
				curRegion = p.Funcs[callee].Region
			}
		}
		e.dispatchStart = e.count
		// Driver dispatch: indirect call into the chosen function.
		e.emit(isa.Branch{
			PC:       p.DriverCallPC,
			Target:   p.Funcs[callee].Entry,
			BlockLen: 4,
			Kind:     isa.IndirectCall,
			Taken:    true,
		})
		e.runFunc(p.Funcs[callee], p.DriverCallPC.Add(isa.InstrBytes), 0)
		// Driver loop back-edge (taken until the final iteration).
		taken := e.count < e.limit
		e.emit(isa.Branch{
			PC:       p.DriverLoopPC,
			Target:   p.DriverCallBlock,
			BlockLen: 3,
			Kind:     isa.CondDirect,
			Taken:    taken,
		})
	}
}

func (e *Executor) emit(b isa.Branch) {
	e.out = append(e.out, b)
	e.count += uint64(b.BlockLen)
}

// runFunc interprets one invocation of f and emits its return record.
// retAddr is where the return jumps back to.
func (e *Executor) runFunc(f *Func, retAddr addr.VA, depth int) {
	// Per-invocation remaining-trip counters for loop back-edges: -1 means
	// "not started"; sampled on first arrival at the back-edge.
	var trips map[int]int

	// The dispatch budget also bounds loop execution: without it, nested
	// loops could let a single dispatch swallow the entire trace budget and
	// collapse the dynamic working set onto a handful of functions.
	budget := uint64(e.p.Cfg.DispatchInstrs) * 2

	i := 0
	for i < len(f.Sites) && e.count < e.limit && e.count-e.dispatchStart < budget {
		s := &f.Sites[i]
		switch s.Kind {
		case isa.CondDirect:
			if s.LoopTo >= 0 {
				if trips == nil {
					trips = make(map[int]int, 4)
				}
				rem, started := trips[i]
				if !started {
					// Stable trip count with occasional data-dependent jitter:
					// predictable enough for a history predictor, not perfectly
					// regular.
					rem = s.TripMean - 1
					if e.r.Bool(0.15) {
						rem += e.r.Intn(3) - 1
					}
					if rem < 0 {
						rem = 0
					}
				}
				if rem > 0 {
					trips[i] = rem - 1
					e.emit(isa.Branch{PC: s.PC, Target: s.Target, BlockLen: s.BlockLen, Kind: s.Kind, Taken: true})
					i = s.LoopTo
					continue
				}
				delete(trips, i) // re-sample on next loop entry
				e.emit(isa.Branch{PC: s.PC, Target: s.Target, BlockLen: s.BlockLen, Kind: s.Kind, Taken: false})
				i++
				continue
			}
			taken := e.r.Bool(s.TakenP)
			e.emit(isa.Branch{PC: s.PC, Target: s.Target, BlockLen: s.BlockLen, Kind: s.Kind, Taken: taken})
			i++

		case isa.UncondDirect:
			e.emit(isa.Branch{PC: s.PC, Target: s.Target, BlockLen: s.BlockLen, Kind: s.Kind, Taken: true})
			if s.SkipTo >= 0 {
				i = s.SkipTo
			} else {
				i++
			}

		case isa.DirectCall:
			e.emit(isa.Branch{PC: s.PC, Target: s.Target, BlockLen: s.BlockLen, Kind: s.Kind, Taken: true})
			e.descend(s.Callee, s.PC, depth)
			i++

		case isa.IndirectCall:
			// Indirect call sites are mostly monomorphic at runtime: the
			// first callee dominates, the rest are occasional.
			callee := s.Callees[0]
			if e.r.Bool(0.30) {
				callee = s.Callees[e.r.Intn(len(s.Callees))]
			}
			e.emit(isa.Branch{PC: s.PC, Target: e.p.Funcs[callee].Entry, BlockLen: s.BlockLen, Kind: s.Kind, Taken: true})
			e.descend(callee, s.PC, depth)
			i++

		case isa.IndirectJump:
			// Switch dispatch skews heavily toward a dominant case.
			k := 0
			if e.r.Bool(0.30) {
				k = e.r.Intn(len(s.JumpTo))
			}
			e.emit(isa.Branch{PC: s.PC, Target: s.JumpTargets[k], BlockLen: s.BlockLen, Kind: s.Kind, Taken: true})
			i = s.JumpTo[k]

		default: // isa.Return never appears as a Site kind
			i++
		}
	}
	// Implicit return.
	e.emit(isa.Branch{PC: f.RetPC, Target: retAddr, BlockLen: f.RetBlockLen, Kind: isa.Return, Taken: true})
}

// descend runs a callee unless the depth limit is reached, in which case the
// callee contributes only its return (modelling a trivially small leaf).
func (e *Executor) descend(callee int, callPC addr.VA, depth int) {
	retAddr := callPC.Add(isa.InstrBytes)
	cf := e.p.Funcs[callee]
	if depth+1 >= e.p.Cfg.MaxCallDepth ||
		e.count-e.dispatchStart >= uint64(e.p.Cfg.DispatchInstrs) {
		e.emit(isa.Branch{PC: cf.RetPC, Target: retAddr, BlockLen: cf.RetBlockLen, Kind: isa.Return, Taken: true})
		return
	}
	e.runFunc(cf, retAddr, depth+1)
}

// Build synthesizes the program and executes it in one step. Errors name
// the application so harnesses that aggregate failures across a suite can
// report which workload was unbuildable.
func Build(cfg Config, totalInstrs uint64) (*Program, *trace.Memory, error) {
	p, err := NewProgram(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("workload %q: %w", cfg.Name, err)
	}
	return p, Execute(p, totalInstrs), nil
}

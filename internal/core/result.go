package core

import (
	"fmt"

	"repro/internal/isa"
)

// Result aggregates one simulation run (measured window only).
type Result struct {
	App    string
	Design string

	Instructions uint64
	Cycles       float64

	DynBranches  uint64
	TakenDyn     uint64
	LookupsTaken uint64

	// BTBMissByClass counts the paper's §5.1 miss definition — taken branch
	// with no BTB entry or a wrong predicted target — per branch class.
	BTBMissByClass [isa.NumClasses]uint64
	TakenByClass   [isa.NumClasses]uint64
	DirMispredicts uint64
	RASMispredicts uint64
	ICacheMisses   uint64
	ICacheAccesses uint64
	ExtraBTBCycles uint64 // pointer-path (2-cycle) lookups
	DeltaServed    uint64 // same-page (single-cycle) hits
	NTRegisterhits uint64 // misses served by the Next Target register
	WrongPathFlush uint64 // total resteers
	BTBResteers    uint64 // resteers attributed to BTB target misses
	DirResteers    uint64 // resteers attributed to direction mispredicts
	RetResteers    uint64 // resteers attributed to return mispredicts

	// Cycle decomposition (Figure 1): backend busy, frontend bubbles from
	// supply latency (icache + BPU throughput), and resteer penalties.
	BackendCycles    float64
	FrontendBubbles  float64
	BTBResteerCycles float64
	DirResteerCycles float64
	RetResteerCycles float64
}

// IPC returns instructions per cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / r.Cycles
}

// BTBMisses returns total BTB target misses.
func (r *Result) BTBMisses() uint64 {
	var n uint64
	for _, m := range r.BTBMissByClass {
		n += m
	}
	return n
}

// BTBMPKI is the headline metric: BTB misses per kilo-instruction.
func (r *Result) BTBMPKI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.BTBMisses()) * 1000 / float64(r.Instructions)
}

// DirMPKI returns direction mispredicts per kilo-instruction.
func (r *Result) DirMPKI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.DirMispredicts) * 1000 / float64(r.Instructions)
}

// FrontendStallFrac is the fraction of all cycles lost to frontend causes
// (bubbles plus every resteer penalty) — the Figure 1 numerator.
func (r *Result) FrontendStallFrac() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return (r.FrontendBubbles + r.BTBResteerCycles + r.DirResteerCycles + r.RetResteerCycles) / r.Cycles
}

// BTBResteerShareOfStalls is the share of frontend stall cycles caused by
// BTB resteers (the paper reports >40%).
func (r *Result) BTBResteerShareOfStalls() float64 {
	s := r.FrontendBubbles + r.BTBResteerCycles + r.DirResteerCycles + r.RetResteerCycles
	if s == 0 {
		return 0
	}
	return r.BTBResteerCycles / s
}

// Speedup returns r's IPC gain over a baseline run of the same app.
func (r *Result) Speedup(base *Result) float64 {
	b := base.IPC()
	if b == 0 {
		return 0
	}
	return r.IPC()/b - 1
}

// MPKIReduction returns the relative BTB MPKI reduction vs a baseline run.
func (r *Result) MPKIReduction(base *Result) float64 {
	b := base.BTBMPKI()
	if b == 0 {
		return 0
	}
	return 1 - r.BTBMPKI()/b
}

func (r *Result) String() string {
	return fmt.Sprintf("%s/%s: IPC=%.3f BTB-MPKI=%.3f dir-MPKI=%.3f fe-stall=%.1f%%",
		r.App, r.Design, r.IPC(), r.BTBMPKI(), r.DirMPKI(), 100*r.FrontendStallFrac())
}

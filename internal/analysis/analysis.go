// Package analysis computes the branch-population statistics the paper uses
// to motivate PDede (§3, Figures 3–8): taken rates, branch-type mix, target
// region/page/offset cardinalities, targets per page and region, and the
// page distance between branch PCs and their targets.
package analysis

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/addr"
	"repro/internal/isa"
	"repro/internal/trace"
)

// DistanceBucket classifies the page distance between a branch PC and its
// target (Figure 8).
type DistanceBucket int

const (
	// SamePage: distance 0 pages.
	SamePage DistanceBucket = iota
	// Near: 1–15 pages away.
	Near
	// Mid: 16–4095 pages away.
	Mid
	// Far: 4096–65535 pages away.
	Far
	// VeryFar: ≥ 65536 pages (typically a different ASLR region).
	VeryFar

	NumDistanceBuckets = 5
)

var distanceNames = [NumDistanceBuckets]string{
	"same-page", "1-15", "16-4K", "4K-64K", ">64K",
}

func (d DistanceBucket) String() string {
	if int(d) < len(distanceNames) {
		return distanceNames[d]
	}
	return fmt.Sprintf("DistanceBucket(%d)", int(d))
}

// BucketDistance maps a page distance to its bucket.
func BucketDistance(pages uint64) DistanceBucket {
	switch {
	case pages == 0:
		return SamePage
	case pages < 16:
		return Near
	case pages < 4096:
		return Mid
	case pages < 65536:
		return Far
	default:
		return VeryFar
	}
}

// Characterization aggregates every §3 statistic over one trace. All
// "unique" sets are computed over *taken* branches, matching the paper: only
// taken branches consume BTB entries.
type Characterization struct {
	// Instructions is the total dynamic instruction count.
	Instructions uint64
	// DynBranches / DynTaken count dynamic branch records.
	DynBranches uint64
	DynTaken    uint64
	// DynTakenByClass splits dynamic taken branches by Figure 4 class.
	DynTakenByClass [isa.NumClasses]uint64

	// StaticPCs is the number of unique branch PCs observed; StaticTakenPCs
	// the subset observed taken at least once.
	StaticPCs      int
	StaticTakenPCs int

	// UniqueTargets/Regions/Pages/Offsets are the Figure 7 cardinalities
	// over targets of taken non-return branches.
	UniqueTargets int
	UniqueRegions int
	UniquePages   int
	UniqueOffsets int

	// DistanceByClass histograms PC→target page distance for taken
	// non-return branches (Figure 8).
	DistanceByClass [isa.NumClasses][NumDistanceBuckets]uint64
	// DynSamePage / DynCrossPage count dynamic taken non-return branches.
	DynSamePage  uint64
	DynCrossPage uint64
	// StaticSamePage counts unique taken non-return branch PCs whose target
	// set stays within the branch's page.
	StaticSamePage int
}

// Characterize consumes an entire trace.
func Characterize(r trace.Reader) (*Characterization, error) {
	c := &Characterization{}
	pcs := make(map[addr.VA]uint8) // bit0 seen, bit1 taken, bit2 same-page only
	targets := make(map[addr.VA]struct{})
	regions := make(map[addr.RegionID]struct{})
	pages := make(map[uint64]struct{}) // full PageAddr (region‖page), not a PageNum
	offsets := make(map[addr.PageOffset]struct{})

	for {
		b, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		c.Instructions += uint64(b.BlockLen)
		c.DynBranches++
		flags := pcs[b.PC] | 1
		if b.Taken {
			c.DynTaken++
			c.DynTakenByClass[b.Kind.Class()]++
			flags |= 2
			if !b.Kind.IsReturn() {
				targets[b.Target] = struct{}{}
				regions[b.Target.Region()] = struct{}{}
				pages[b.Target.PageAddr()] = struct{}{}
				offsets[b.Target.Offset()] = struct{}{}
				dist := b.PC.PageDistance(b.Target)
				c.DistanceByClass[b.Kind.Class()][BucketDistance(dist)]++
				if dist == 0 {
					c.DynSamePage++
					flags |= 4
				} else {
					c.DynCrossPage++
					flags &^= 4
					flags |= 8 // ever cross-page
				}
			}
		}
		pcs[b.PC] = flags
	}

	c.StaticPCs = len(pcs)
	for _, f := range pcs {
		if f&2 != 0 {
			c.StaticTakenPCs++
		}
		if f&4 != 0 && f&8 == 0 {
			c.StaticSamePage++
		}
	}
	c.UniqueTargets = len(targets)
	c.UniqueRegions = len(regions)
	c.UniquePages = len(pages)
	c.UniqueOffsets = len(offsets)
	return c, nil
}

// DynTakenRate is the Figure 3 dynamic metric: the fraction of dynamic
// branch instructions that are taken.
func (c *Characterization) DynTakenRate() float64 {
	return ratio(c.DynTaken, c.DynBranches)
}

// StaticTakenRate is the Figure 3 static metric: the fraction of static
// branch PCs ever observed taken.
func (c *Characterization) StaticTakenRate() float64 {
	return ratio(uint64(c.StaticTakenPCs), uint64(c.StaticPCs))
}

// ClassShare is the Figure 4 metric: class's share of dynamic taken
// branches.
func (c *Characterization) ClassShare(cl isa.Class) float64 {
	return ratio(c.DynTakenByClass[cl], c.DynTaken)
}

// UniqueShare returns the Figure 7 ratios relative to unique taken branch
// PCs: targets, regions, pages and offsets.
func (c *Characterization) UniqueShare() (targets, regions, pages, offsets float64) {
	n := uint64(c.StaticTakenPCs)
	return ratio(uint64(c.UniqueTargets), n),
		ratio(uint64(c.UniqueRegions), n),
		ratio(uint64(c.UniquePages), n),
		ratio(uint64(c.UniqueOffsets), n)
}

// TargetsPerPage and TargetsPerRegion are the Figure 6 metrics.
func (c *Characterization) TargetsPerPage() float64 {
	return ratio(uint64(c.UniqueTargets), uint64(c.UniquePages))
}

func (c *Characterization) TargetsPerRegion() float64 {
	return ratio(uint64(c.UniqueTargets), uint64(c.UniqueRegions))
}

// DynSamePageRate is the Figure 8 headline: fraction of dynamic taken
// non-return branches whose target shares the branch's page.
func (c *Characterization) DynSamePageRate() float64 {
	return ratio(c.DynSamePage, c.DynSamePage+c.DynCrossPage)
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

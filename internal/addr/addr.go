// Package addr defines the 57-bit virtual address model used throughout the
// simulator and the region/page/offset partitioning that PDede exploits.
//
// Addresses follow recent x86 processors with 5-level paging: 57 significant
// bits. PDede splits a branch target into three components:
//
//	region — bits [RegionShift, VABits): 1 GiB address clusters. Under ASLR,
//	         different libraries land in distinct regions, and applications
//	         traverse very few of them.
//	page   — bits [PageShift, RegionShift): the 4 KiB page index within a
//	         region.
//	offset — bits [0, PageShift): the byte offset within a page. Offsets are
//	         dense and are never deduplicated.
package addr

import "fmt"

const (
	// VABits is the number of significant virtual-address bits (5-level paging).
	VABits = 57
	// PageShift is log2 of the page size (4 KiB pages).
	PageShift = 12
	// RegionShift is log2 of the region size (1 GiB regions).
	RegionShift = 30

	// OffsetBits is the width of the page-offset component.
	OffsetBits = PageShift
	// PageBits is the width of the page component (page index within a region).
	PageBits = RegionShift - PageShift
	// RegionBits is the width of the region component.
	RegionBits = VABits - RegionShift

	// Mask selects the significant bits of a virtual address.
	Mask = (uint64(1) << VABits) - 1

	offsetMask = (uint64(1) << OffsetBits) - 1
	pageMask   = (uint64(1) << PageBits) - 1
	regionMask = (uint64(1) << RegionBits) - 1
)

// VA is a 57-bit virtual address. Bits above VABits are always zero for
// values produced by this package; constructors mask them off.
type VA uint64

// The simulator juggles five distinct integer domains that would otherwise
// all flow as raw uint64 — a region index is never a page number, a set
// index is never a tag. Each gets a zero-cost defined type (underlying
// uint64, no wrappers, no methods on the hot path) so cross-domain mixing
// is a compile error where the static types meet. A mix laundered through
// plain integers or an explicit conversion compiles; it shows at run time,
// in the PDede and oracle audits, the differential oracle and the goldens.
type (
	// RegionID is a 1 GiB region index: bits [RegionShift, VABits) of a VA,
	// RegionBits (27) wide.
	RegionID uint64
	// PageNum is a 4 KiB page index within a region: bits
	// [PageShift, RegionShift) of a VA, PageBits (18) wide.
	PageNum uint64
	// PageOffset is a byte offset within a page: bits [0, PageShift) of a
	// VA, OffsetBits (12) wide.
	PageOffset uint64
	// SetIndex is a hashed set index into a set-associative structure
	// (IndexTag's first result).
	SetIndex uint64
	// Tag is a restricted hashed tag (IndexTag's second result).
	Tag uint64
)

// New returns a VA with bits above VABits cleared.
func New(raw uint64) VA { return VA(raw & Mask) }

// Build composes a virtual address from its region, page and offset
// components. Components wider than their fields are masked.
func Build(region RegionID, page PageNum, offset PageOffset) VA {
	return VA((uint64(region)&regionMask)<<RegionShift |
		(uint64(page)&pageMask)<<PageShift |
		uint64(offset)&offsetMask)
}

// Offset returns the byte offset within the 4 KiB page.
func (v VA) Offset() PageOffset { return PageOffset(uint64(v) & offsetMask) }

// Page returns the page index within the address's region.
func (v VA) Page() PageNum { return PageNum((uint64(v) >> PageShift) & pageMask) }

// Region returns the region index (top RegionBits bits).
func (v VA) Region() RegionID { return RegionID((uint64(v) >> RegionShift) & regionMask) }

// PageAddr returns the full page number (region and page combined), i.e. the
// address with the offset stripped, shifted right by PageShift. Two addresses
// are on the same page iff their PageAddr values are equal.
func (v VA) PageAddr() uint64 { return uint64(v) >> PageShift }

// SamePage reports whether v and o lie on the same 4 KiB page.
func (v VA) SamePage(o VA) bool { return v.PageAddr() == o.PageAddr() }

// WithOffset returns v with its page offset replaced by offset. This is the
// delta-encoding reconstruction: the region and page come from the branch PC
// and only the offset is supplied by the BTB.
func (v VA) WithOffset(offset PageOffset) VA {
	return VA(uint64(v)&^offsetMask | uint64(offset)&offsetMask)
}

// Add returns v advanced by n bytes, wrapped to the 57-bit space.
func (v VA) Add(n uint64) VA { return VA((uint64(v) + n) & Mask) }

// PageDistance returns the distance between the pages of v and o in pages
// (absolute value). Zero means same page.
func (v VA) PageDistance(o VA) uint64 {
	a, b := v.PageAddr(), o.PageAddr()
	if a > b {
		return a - b
	}
	return b - a
}

// String formats the address showing its partition, e.g.
// "0x0000123456789:r=0x12 p=0x3456 o=0x789".
func (v VA) String() string {
	return fmt.Sprintf("0x%014x{r=0x%x p=0x%x o=0x%x}",
		uint64(v), v.Region(), v.Page(), v.Offset())
}

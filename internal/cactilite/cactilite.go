// Package cactilite is a small analytic SRAM access-time model standing in
// for CACTI 7 at 22nm (§5.4, Table 4). CACTI itself is a large external
// tool; what the paper needs from it is the *relative* latency of the
// BTB structures — that PDede's BTBM is faster than the baseline BTB, that
// the Page-BTB read is short, and that the serialized BTBM+Page-BTB access
// fits within one extra cycle at 3.9 GHz.
//
// The model is
//
//	t(ns) = (t0 + k·√bytes) · (1 + q·√entryBits·(ports-1)/5)
//
// with constants least-squares calibrated to the six published Table 4
// points. The √bytes term models wordline/bitline RC growth with array
// area; the port factor models the area inflation of multi-ported cells,
// which hits wide entries hardest. Worst-case deviation from the published
// numbers is ≈9% (documented per-point in EXPERIMENTS.md).
package cactilite

import (
	"fmt"
	"math"
)

// Calibrated constants (fit to Table 4 at 22nm).
const (
	t0 = 0.0378    // ns: sense/decode overhead
	k  = 0.0010316 // ns per √byte: array RC growth
	q  = 0.21      // port-area penalty per √entry-bit
)

// Structure describes one SRAM array.
type Structure struct {
	// Name labels the row in reports.
	Name string
	// Bits is the total storage.
	Bits uint64
	// EntryBits is the row width (wider rows suffer more from porting).
	EntryBits uint64
	// Ports is the number of read-write ports (≥1).
	Ports int
}

// AccessNs returns the modelled access time in nanoseconds.
func (s Structure) AccessNs() float64 {
	if s.Bits == 0 || s.Ports < 1 {
		return 0
	}
	bytes := float64(s.Bits) / 8
	base := t0 + k*math.Sqrt(bytes)
	port := 1 + q*math.Sqrt(float64(s.EntryBits))*float64(s.Ports-1)/5
	return base * port
}

// Row is one line of the Table 4 reproduction.
type Row struct {
	Name         string
	OnePortNs    float64
	SixPortNs    float64
	PaperOnePort float64 // published reference, 0 if the paper has none
	PaperSixPort float64
}

// Table4 reproduces the paper's access-latency comparison for the default
// design points: the 4K-entry baseline BTB, PDede's BTBM, the Page-BTB, and
// the serialized BTBM+Page-BTB path.
func Table4() []Row {
	baseline := Structure{Name: "Baseline BTB", Bits: 4096 * 75, EntryBits: 75}
	btbm := Structure{Name: "BTBM", Bits: 6144 * 42, EntryBits: 42}
	pbtb := Structure{Name: "Page-BTB (PBTB)", Bits: 1024 * 20, EntryBits: 20}

	one := func(s Structure) float64 { s.Ports = 1; return s.AccessNs() }
	six := func(s Structure) float64 { s.Ports = 6; return s.AccessNs() }

	rows := []Row{
		{baseline.Name, one(baseline), six(baseline), 0.24, 0.72},
		{btbm.Name, one(btbm), six(btbm), 0.21, 0.55},
		{pbtb.Name, one(pbtb), six(pbtb), 0.09, 0.16},
	}
	rows = append(rows, Row{
		Name:         "PDede (BTBM+PBTB)",
		OnePortNs:    rows[1].OnePortNs + rows[2].OnePortNs,
		SixPortNs:    rows[1].SixPortNs + rows[2].SixPortNs,
		PaperOnePort: 0.30,
		PaperSixPort: 0.71,
	})
	return rows
}

func (r Row) String() string {
	return fmt.Sprintf("%-20s %5.2f ns (paper %.2f)   %5.2f ns (paper %.2f)",
		r.Name, r.OnePortNs, r.PaperOnePort, r.SixPortNs, r.PaperSixPort)
}

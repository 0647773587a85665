package cactilite

import (
	"math"
	"testing"
)

func TestCalibrationWithinTolerance(t *testing.T) {
	for _, r := range Table4() {
		for _, pair := range []struct {
			got, want float64
			what      string
		}{
			{r.OnePortNs, r.PaperOnePort, "1RW"},
			{r.SixPortNs, r.PaperSixPort, "6RW"},
		} {
			if pair.want == 0 {
				continue
			}
			relErr := math.Abs(pair.got-pair.want) / pair.want
			if relErr > 0.12 {
				t.Errorf("%s %s: model %.3f vs paper %.2f (%.0f%% off)",
					r.Name, pair.what, pair.got, pair.want, 100*relErr)
			}
		}
	}
}

func TestRelativeOrderings(t *testing.T) {
	rows := Table4()
	baseline, btbm, pbtb, pdede := rows[0], rows[1], rows[2], rows[3]
	// The paper's architectural arguments, which must hold in the model:
	if btbm.OnePortNs >= baseline.OnePortNs {
		t.Error("BTBM not faster than baseline BTB (1 port)")
	}
	if btbm.SixPortNs >= baseline.SixPortNs {
		t.Error("BTBM not faster than baseline BTB (6 ports)")
	}
	if pbtb.OnePortNs >= btbm.OnePortNs {
		t.Error("Page-BTB not faster than BTBM")
	}
	if pdede.OnePortNs != btbm.OnePortNs+pbtb.OnePortNs {
		t.Error("PDede path is not the serialized sum")
	}
}

func TestMonotonicity(t *testing.T) {
	small := Structure{Bits: 1 << 12, EntryBits: 40, Ports: 1}
	big := Structure{Bits: 1 << 20, EntryBits: 40, Ports: 1}
	if small.AccessNs() >= big.AccessNs() {
		t.Error("access time not monotonic in size")
	}
	p1 := Structure{Bits: 1 << 16, EntryBits: 60, Ports: 1}
	p6 := p1
	p6.Ports = 6
	if p1.AccessNs() >= p6.AccessNs() {
		t.Error("access time not monotonic in ports")
	}
}

func TestCyclesAt(t *testing.T) {
	base := Structure{Bits: 4096 * 75, EntryBits: 75, Ports: 1}
	// 0.24 ns at 3.9 GHz ≈ 0.94 cycles → 1 cycle.
	if got := int(math.Ceil(base.AccessNs() * 3.9)); got != 1 {
		t.Errorf("baseline cycles = %d, want 1", got)
	}
	// The full PDede path at 3.9 GHz needs 2 cycles — the architectural
	// basis of the 1-cycle penalty.
	pdede := Structure{Bits: 6144 * 42, EntryBits: 42, Ports: 1}
	pb := Structure{Bits: 1024 * 20, EntryBits: 20, Ports: 1}
	total := pdede.AccessNs() + pb.AccessNs()
	if cycles := int(math.Ceil(total * 3.9)); cycles != 2 {
		t.Errorf("PDede path cycles = %d, want 2", cycles)
	}
}

func TestDegenerate(t *testing.T) {
	if (Structure{}).AccessNs() != 0 {
		t.Error("zero structure has nonzero latency")
	}
	if (Structure{Bits: 100, EntryBits: 10, Ports: 0}).AccessNs() != 0 {
		t.Error("zero ports has nonzero latency")
	}
}

func TestRowString(t *testing.T) {
	for _, r := range Table4() {
		if r.String() == "" {
			t.Error("empty row string")
		}
	}
}

package addr

import (
	"testing"
	"testing/quick"
)

func TestBuildParts(t *testing.T) {
	v := Build(0x12, 0x3456, 0x789)
	if got := v.Region(); got != 0x12 {
		t.Errorf("Region = %#x, want 0x12", got)
	}
	if got := v.Page(); got != 0x3456 {
		t.Errorf("Page = %#x, want 0x3456", got)
	}
	if got := v.Offset(); got != 0x789 {
		t.Errorf("Offset = %#x, want 0x789", got)
	}
}

func TestPartitionWidths(t *testing.T) {
	if OffsetBits+PageBits+RegionBits != VABits {
		t.Fatalf("partition widths %d+%d+%d != %d",
			OffsetBits, PageBits, RegionBits, VABits)
	}
}

// Property: decompose∘compose is the identity on the 57-bit space.
func TestComposeDecomposeRoundTrip(t *testing.T) {
	f := func(raw uint64) bool {
		v := New(raw)
		return Build(v.Region(), v.Page(), v.Offset()) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: components never exceed their field widths.
func TestComponentBounds(t *testing.T) {
	f := func(raw uint64) bool {
		v := New(raw)
		return v.Offset() < 1<<OffsetBits &&
			v.Page() < 1<<PageBits &&
			v.Region() < 1<<RegionBits
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewMasks(t *testing.T) {
	v := New(^uint64(0))
	if uint64(v) != Mask {
		t.Errorf("New(all-ones) = %#x, want %#x", uint64(v), Mask)
	}
}

func TestSamePage(t *testing.T) {
	base := Build(3, 100, 0)
	if !base.SamePage(base.Add(4095)) {
		t.Error("addresses 4095 bytes apart within a page should be same-page")
	}
	if base.SamePage(base.Add(4096)) {
		t.Error("addresses on adjacent pages should not be same-page")
	}
	if base.Region() != Build(3, 200, 50).Region() {
		t.Error("same region expected")
	}
	if base.Region() == Build(4, 100, 0).Region() {
		t.Error("different region expected")
	}
}

func TestWithOffset(t *testing.T) {
	v := Build(7, 9, 0x123)
	w := v.WithOffset(0xabc)
	if w.Offset() != 0xabc || w.Page() != 9 || w.Region() != 7 {
		t.Errorf("WithOffset got %v", w)
	}
	// Property: WithOffset only changes the offset.
	f := func(raw, off uint64) bool {
		v := New(raw)
		w := v.WithOffset(PageOffset(off))
		return w.PageAddr() == v.PageAddr() && uint64(w.Offset()) == off&((1<<OffsetBits)-1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPageDistance(t *testing.T) {
	a := Build(1, 10, 100)
	b := Build(1, 13, 5)
	if d := a.PageDistance(b); d != 3 {
		t.Errorf("PageDistance = %d, want 3", d)
	}
	if d := b.PageDistance(a); d != 3 {
		t.Errorf("PageDistance symmetric = %d, want 3", d)
	}
	if d := a.PageDistance(a.Add(1)); d != 0 {
		t.Errorf("same-page distance = %d, want 0", d)
	}
}

func TestFold(t *testing.T) {
	if got := Fold(0xffff_ffff_ffff_ffff, 16); got != 0 {
		t.Errorf("Fold(all-ones,16) = %#x, want 0 (even number of chunks XOR out)", got)
	}
	if got := Fold(0x1234, 16); got != 0x1234 {
		t.Errorf("Fold small = %#x, want 0x1234", got)
	}
	if got := Fold(0xdead, 64); got != 0xdead {
		t.Errorf("Fold width 64 = %#x", got)
	}
}

func TestIndexTagBounds(t *testing.T) {
	f := func(raw uint64) bool {
		idx, tag := IndexTag(New(raw), 9, 12)
		return idx < 1<<9 && tag < 1<<12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIndexTagSpreads(t *testing.T) {
	// Sequential PCs (stride 4) should hit many distinct sets of a 512-set table.
	seen := make(map[SetIndex]bool)
	for i := 0; i < 4096; i++ {
		idx, _ := IndexTag(New(uint64(0x40_0000+4*i)), 9, 12)
		seen[idx] = true
	}
	if len(seen) < 400 {
		t.Errorf("sequential PCs covered only %d/512 sets", len(seen))
	}
}

func TestStringContainsParts(t *testing.T) {
	s := Build(1, 2, 3).String()
	if s == "" {
		t.Error("empty String()")
	}
}

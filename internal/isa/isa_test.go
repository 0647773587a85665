package isa

import (
	"testing"

	"repro/internal/addr"
)

func TestKindPredicates(t *testing.T) {
	cases := []struct {
		k                         Kind
		cond, indirect, call, ret bool
	}{
		{CondDirect, true, false, false, false},
		{UncondDirect, false, false, false, false},
		{DirectCall, false, false, true, false},
		{IndirectJump, false, true, false, false},
		{IndirectCall, false, true, true, false},
		{Return, false, false, false, true},
	}
	for _, c := range cases {
		if c.k.IsConditional() != c.cond {
			t.Errorf("%v IsConditional = %v", c.k, c.k.IsConditional())
		}
		if c.k.IsIndirect() != c.indirect {
			t.Errorf("%v IsIndirect = %v", c.k, c.k.IsIndirect())
		}
		if c.k.IsCall() != c.call {
			t.Errorf("%v IsCall = %v", c.k, c.k.IsCall())
		}
		if c.k.IsReturn() != c.ret {
			t.Errorf("%v IsReturn = %v", c.k, c.k.IsReturn())
		}
	}
}

func TestClassMapping(t *testing.T) {
	want := map[Kind]Class{
		CondDirect:   ClassCondDirect,
		UncondDirect: ClassUncondDirect,
		DirectCall:   ClassUncondDirect,
		IndirectJump: ClassIndirect,
		IndirectCall: ClassIndirect,
		Return:       ClassReturn,
	}
	for k, c := range want {
		if got := k.Class(); got != c {
			t.Errorf("%v.Class() = %v, want %v", k, got, c)
		}
	}
}

func TestNames(t *testing.T) {
	for k := Kind(0); k < NumKinds; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has empty name", k)
		}
	}
	for c := Class(0); c < NumClasses; c++ {
		if c.String() == "" {
			t.Errorf("class %d has empty name", c)
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Errorf("out-of-range kind name: %s", Kind(99).String())
	}
}

func TestNextPC(t *testing.T) {
	b := Branch{
		PC:       addr.Build(1, 2, 0x100),
		Target:   addr.Build(1, 2, 0x200),
		BlockLen: 3,
		Kind:     CondDirect,
		Taken:    true,
	}
	if got := b.NextPC(); got != b.Target {
		t.Errorf("taken NextPC = %v, want target", got)
	}
	b.Taken = false
	if got := b.NextPC(); got != b.PC.Add(InstrBytes) {
		t.Errorf("not-taken NextPC = %v, want fallthrough", got)
	}
}

func TestSamePage(t *testing.T) {
	b := Branch{PC: addr.Build(1, 2, 0x10), Target: addr.Build(1, 2, 0xff0)}
	if !b.SamePage() {
		t.Error("same-page branch misreported")
	}
	b.Target = addr.Build(1, 3, 0x10)
	if b.SamePage() {
		t.Error("cross-page branch misreported")
	}
}

func TestValidate(t *testing.T) {
	good := Branch{PC: 4, Target: 8, BlockLen: 1, Kind: UncondDirect, Taken: true}
	if err := good.Validate(); err != nil {
		t.Errorf("valid branch rejected: %v", err)
	}
	zero := good
	zero.BlockLen = 0
	if zero.Validate() == nil {
		t.Error("zero BlockLen accepted")
	}
	nt := good
	nt.Taken = false
	if nt.Validate() == nil {
		t.Error("not-taken unconditional accepted")
	}
	bad := good
	bad.Kind = Kind(42)
	if bad.Validate() == nil {
		t.Error("invalid kind accepted")
	}
}

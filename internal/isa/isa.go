// Package isa defines the instruction-set-level vocabulary of the simulator:
// branch kinds, the dynamic branch record that traces are made of, and the
// few layout constants shared between the workload generator and the
// micro-architectural models.
package isa

import (
	"fmt"

	"repro/internal/addr"
)

// InstrBytes is the modelled instruction size. The synthetic ISA uses
// fixed-size 4-byte instructions; on x86 instruction lengths vary, but the
// BTB only ever sees byte addresses, so a fixed encoding changes nothing
// structural (offsets, pages and regions behave identically).
const InstrBytes = 4

// Kind classifies a control-flow instruction. The taxonomy follows §2 of the
// paper: conditional direct, unconditional direct (including calls),
// unconditional indirect (including indirect calls), plus returns, which are
// normally served by the return address stack rather than the BTB.
type Kind uint8

const (
	// CondDirect is a conditional branch with a compile-time target
	// (loops, if-then-else).
	CondDirect Kind = iota
	// UncondDirect is an unconditional jump with a compile-time target
	// (goto, tail jumps).
	UncondDirect
	// DirectCall is a direct function call (unconditional, direct; pushes a
	// return address).
	DirectCall
	// IndirectJump is an unconditional jump through a register or memory
	// (switch tables, PLT stubs).
	IndirectJump
	// IndirectCall is a function call through a pointer (virtual dispatch,
	// function pointers).
	IndirectCall
	// Return pops the return address stack.
	Return

	// NumKinds is the number of branch kinds.
	NumKinds = 6
)

var kindNames = [NumKinds]string{
	"cond-direct", "uncond-direct", "direct-call",
	"indirect-jump", "indirect-call", "return",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// IsConditional reports whether the branch has a direction to predict.
func (k Kind) IsConditional() bool { return k == CondDirect }

// IsIndirect reports whether the target is only known at execution.
func (k Kind) IsIndirect() bool {
	return k == IndirectJump || k == IndirectCall
}

// IsCall reports whether the branch pushes a return address.
func (k Kind) IsCall() bool { return k == DirectCall || k == IndirectCall }

// IsReturn reports whether the branch pops the return address stack.
func (k Kind) IsReturn() bool { return k == Return }

// Class is the paper's three-way grouping used in Figure 4 and the MPKI
// breakdowns (returns are reported separately since the RAS serves them).
type Class uint8

const (
	ClassCondDirect Class = iota
	ClassUncondDirect
	ClassIndirect
	ClassReturn

	NumClasses = 4
)

var classNames = [NumClasses]string{
	"conditional-direct", "unconditional-direct", "indirect", "return",
}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Class maps a Kind onto the paper's grouping.
func (k Kind) Class() Class {
	switch k {
	case CondDirect:
		return ClassCondDirect
	case UncondDirect, DirectCall:
		return ClassUncondDirect
	case IndirectJump, IndirectCall:
		return ClassIndirect
	default:
		return ClassReturn
	}
}

// MaxBlockLen is the largest basic-block length a Branch can carry.
// External trace adapters (ChampSim instruction streams, perf/LBR branch
// stacks) can observe longer branch-free runs — initialization loops,
// vectorized memsets — and must saturate rather than wrap.
const MaxBlockLen = 1<<16 - 1

// ClampBlockLen saturates an instruction count into the BlockLen range
// [1, MaxBlockLen]. Zero-length blocks are illegal (every block contains at
// least its terminating branch), so 0 clamps up to 1.
func ClampBlockLen(n uint64) uint16 {
	switch {
	case n == 0:
		return 1
	case n > MaxBlockLen:
		return MaxBlockLen
	default:
		return uint16(n)
	}
}

// Branch is one dynamic control-flow event. A trace is a sequence of Branch
// records; the sequential instructions between branches are summarised by
// BlockLen, which makes traces compact while preserving instruction counts
// for IPC and MPKI.
type Branch struct {
	// PC is the address of the branch instruction.
	PC addr.VA
	// Target is the architectural target: where execution continues if the
	// branch is taken. For not-taken conditionals it still records the
	// would-be target (the value a BTB would learn).
	Target addr.VA
	// BlockLen is the number of instructions in the basic block that ends
	// with this branch, including the branch itself (≥ 1).
	BlockLen uint16
	// Kind classifies the branch.
	Kind Kind
	// Taken reports the resolved direction. Unconditional branches are
	// always taken.
	Taken bool
}

// Fallthrough returns the address of the instruction after the branch — the
// address fetched when the branch is not taken.
func (b Branch) Fallthrough() addr.VA { return b.PC.Add(InstrBytes) }

// NextPC returns where execution architecturally continues after the branch.
func (b Branch) NextPC() addr.VA {
	if b.Taken {
		return b.Target
	}
	return b.Fallthrough()
}

// SamePage reports whether the branch PC and its target share a page — the
// property delta encoding exploits.
func (b Branch) SamePage() bool { return b.PC.SamePage(b.Target) }

// Validate reports structural problems with the record.
func (b Branch) Validate() error {
	if b.BlockLen == 0 {
		return fmt.Errorf("isa: branch at %v has zero BlockLen", b.PC)
	}
	if b.Kind >= NumKinds {
		return fmt.Errorf("isa: branch at %v has invalid kind %d", b.PC, b.Kind)
	}
	if !b.Kind.IsConditional() && !b.Taken {
		return fmt.Errorf("isa: unconditional %v at %v marked not-taken", b.Kind, b.PC)
	}
	return nil
}

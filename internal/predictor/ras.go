package predictor

import "repro/internal/addr"

// RAS is the return address stack (§2): calls push their fallthrough
// address, returns pop it. A fixed-depth circular stack models hardware:
// deep recursion wraps and corrupts the oldest entries, exactly as real
// RASes do.
type RAS struct {
	stack []addr.VA
	top   int // index of next push slot
	depth int // live entries, ≤ len(stack)
}

// NewRAS builds a stack with the given capacity (Icelake-class cores use
// tens of entries).
func NewRAS(capacity int) *RAS {
	if capacity <= 0 {
		panic("predictor: RAS capacity must be positive")
	}
	return &RAS{stack: make([]addr.VA, capacity)}
}

// Push records a call's return address.
func (r *RAS) Push(ret addr.VA) {
	r.stack[r.top] = ret
	r.top = (r.top + 1) % len(r.stack)
	if r.depth < len(r.stack) {
		r.depth++
	}
}

// Pop predicts a return target. ok is false when the stack is empty (the
// frontend then has no prediction and will resteer).
func (r *RAS) Pop() (addr.VA, bool) {
	if r.depth == 0 {
		return 0, false
	}
	r.top = (r.top - 1 + len(r.stack)) % len(r.stack)
	r.depth--
	return r.stack[r.top], true
}

// StorageBits returns the stack storage.
func (r *RAS) StorageBits() uint64 { return uint64(len(r.stack)) * 57 }

// Reset clears the stack.
func (r *RAS) Reset() {
	r.top = 0
	r.depth = 0
}

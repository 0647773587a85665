package btb

import "fmt"

// PolicyKind selects a replacement policy for the baseline BTB. The paper
// uses SRRIP and cites replacement-policy work (e.g. GHRP) as orthogonal;
// the alternatives here support the repository's replacement ablation.
type PolicyKind uint8

const (
	// PolicySRRIP is Static Re-Reference Interval Prediction (default).
	PolicySRRIP PolicyKind = iota
	// PolicyLRU is true least-recently-used.
	PolicyLRU
	// PolicyRandom evicts a pseudo-random way.
	PolicyRandom
	// PolicyGHRP is a simplified predictive replacement policy in the
	// spirit of GHRP (see ghrp.go).
	PolicyGHRP
)

func (k PolicyKind) String() string {
	switch k {
	case PolicySRRIP:
		return "srrip"
	case PolicyLRU:
		return "lru"
	case PolicyRandom:
		return "random"
	case PolicyGHRP:
		return "ghrp"
	default:
		return fmt.Sprintf("PolicyKind(%d)", uint8(k))
	}
}

// replacer manages the replacement order of one set under LRU or random
// replacement. SRRIP, and GHRP's fallback order, keep their state in the
// structure's SRRIPSets instead.
type replacer interface {
	// Touch records a hit on way w.
	Touch(w int)
	// Insert records an allocation into way w.
	Insert(w int)
	// Victim returns the way to replace.
	Victim() int
	// Bits is the metadata cost per way.
	Bits() uint64
	// Reset clears the state.
	Reset()
}

// newReplacer builds one set's PolicyLRU or PolicyRandom state.
func newReplacer(kind PolicyKind, ways int) replacer {
	if kind == PolicyLRU {
		return &lruRepl{stamp: make([]uint64, ways)}
	}
	return &randRepl{ways: ways, state: 0x9e3779b9}
}

// lruRepl holds a logical timestamp per way; the victim is the oldest.
type lruRepl struct {
	stamp []uint64
	clock uint64
}

func (r *lruRepl) Touch(w int) {
	r.clock++
	r.stamp[w] = r.clock
}
func (r *lruRepl) Insert(w int) { r.Touch(w) }
func (r *lruRepl) Victim() int {
	v, oldest := 0, ^uint64(0)
	for w, s := range r.stamp {
		if s < oldest {
			oldest, v = s, w
		}
	}
	return v
}

// Bits models log2(ways) recency bits per way (a hardware LRU stack).
func (r *lruRepl) Bits() uint64 {
	b := uint64(0)
	for n := len(r.stamp) - 1; n > 0; n >>= 1 {
		b++
	}
	return b
}

func (r *lruRepl) Reset() {
	for w := range r.stamp {
		r.stamp[w] = 0
	}
	r.clock = 0
}

// randRepl evicts pseudo-randomly (xorshift32 per set).
type randRepl struct {
	ways  int
	state uint32
}

func (r *randRepl) Touch(int)  {}
func (r *randRepl) Insert(int) {}

//pdede:bitwidth-ok xorshift32 generator constants, not address-field widths
func (r *randRepl) Victim() int {
	r.state ^= r.state << 13
	r.state ^= r.state >> 17
	r.state ^= r.state << 5
	return int(r.state>>1) % r.ways
}
func (r *randRepl) Bits() uint64 { return 0 }
func (r *randRepl) Reset()       { r.state = 0x9e3779b9 }

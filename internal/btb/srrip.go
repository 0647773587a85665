package btb

// SRRIPSets implements Static Re-Reference Interval Prediction replacement
// (Jaleel et al., ISCA'10) for every set of one structure, in one flat RRPV
// slab. Each way carries an RRPV (re-reference prediction value); hits
// promote to 0, insertions start at max-1 ("long re-reference"), and
// victims are ways holding max, aging every candidate until one appears.
type SRRIPSets struct {
	rrpv []uint8 // set s's ways at [s*ways, (s+1)*ways)
	all  []int   // every way index, the candidates of an unrestricted Victim
	max  uint8
}

// NewSRRIPSets builds replacement state for sets×ways ways with bits-bit
// RRPVs (the paper uses 2-bit for PDede structures, 3-bit for the baseline
// BTB). Every way starts empty, an immediate victim.
func NewSRRIPSets(sets, ways int, bits uint) SRRIPSets {
	if sets <= 0 || ways <= 0 {
		panic("btb: SRRIP needs at least one set and one way")
	}
	if bits == 0 || bits > 8 {
		panic("btb: SRRIP RRPV bits out of range")
	}
	s := SRRIPSets{rrpv: make([]uint8, sets*ways), all: make([]int, ways), max: uint8(1<<bits) - 1}
	for w := range s.all {
		s.all[w] = w
	}
	s.Reset()
	return s
}

// Touch marks a hit on way w of set (near-immediate re-reference
// predicted).
func (s *SRRIPSets) Touch(set, w int) { s.rrpv[set*len(s.all)+w] = 0 }

// Insert marks way w of set as freshly allocated with a long re-reference
// interval.
func (s *SRRIPSets) Insert(set, w int) { s.rrpv[set*len(s.all)+w] = s.max - 1 }

// Victim selects the way of set to replace among the candidate ways (nil
// means all ways), aging their RRPVs as needed. It always terminates: aging
// eventually drives some candidate to max.
func (s *SRRIPSets) Victim(set int, candidates []int) int {
	if candidates == nil {
		candidates = s.all
	}
	if len(candidates) == 0 {
		panic("btb: SRRIP victim with no candidates")
	}
	rrpv := s.rrpv[set*len(s.all) : (set+1)*len(s.all)]
	for {
		for _, w := range candidates {
			if rrpv[w] >= s.max {
				return w
			}
		}
		for _, w := range candidates {
			rrpv[w]++
		}
	}
}

// Reset returns every way to max RRPV (empty, an immediate victim).
func (s *SRRIPSets) Reset() {
	for i := range s.rrpv {
		s.rrpv[i] = s.max
	}
}

// Bits returns the replacement metadata bits per way.
func (s *SRRIPSets) Bits() uint64 {
	b := uint64(0)
	for v := s.max; v > 0; v >>= 1 {
		b++
	}
	return b
}

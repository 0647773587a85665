package addr

// Hashing utilities for BTB indexing and tag formation. A good hash spreads
// branch PCs across sets and keeps short (12-bit) tags discriminating, which
// the paper relies on to make restricted tags viable ("With a good hashing
// technique ... such resteering can be minimised", §2).

// Mix64 is a finalizer-style 64-bit mixer (splitmix64 finalizer). It is used
// to scramble PCs before extracting index and tag fields so that nearby PCs
// do not systematically collide. Its shift constants are splitmix64's, not
// address-field widths.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Fold folds a 64-bit value down to width bits by XORing successive
// width-bit chunks together. width must be in (0, 64].
func Fold(x uint64, width uint) uint64 {
	if width >= 64 {
		return x
	}
	mask := (uint64(1) << width) - 1
	var out uint64
	for x != 0 {
		out ^= x & mask
		x >>= width
	}
	return out
}

// IndexTag derives a set index and a tag for a branch PC. Instruction
// addresses are at least 2-byte aligned in practice; we drop the low bit,
// mix, then split. indexBits selects the set, tagBits forms the restricted
// tag. The tag is taken from bits disjoint from the index so that two PCs in
// the same set with equal tags are genuinely aliasing through the fold.
func IndexTag(pc VA, indexBits, tagBits uint) (index SetIndex, tag Tag) {
	h := Mix64(uint64(pc) >> 1)
	index = SetIndex(h & ((uint64(1) << indexBits) - 1))
	return index, Tag(Fold(h>>indexBits, tagBits))
}

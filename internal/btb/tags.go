package btb

import "repro/internal/addr"

// scanTag is one way's tag word: the restricted tag of the entry the way
// holds, or freeWay when the way is empty. It is the only store of a way's
// tag and valid bit, so a set scan compares one 16-bit word per way with no
// separate valid check.
type scanTag uint16

// freeWay marks an empty way. A live tag is TagBits (12) wide, so its word
// is never all-ones.
const freeWay = ^scanTag(0)

// A tag word has room for TagBits plus the free-way marker: this constant
// fails to compile if TagBits grows past 15.
const _ uint = 15 - TagBits

// TagWords is the tag store of a set-associative structure: one tag word
// per way, set s's ways at [s*ways, (s+1)*ways).
type TagWords []scanTag

// NewTagWords returns the tag words of n ways, all free.
func NewTagWords(n int) TagWords {
	t := make(TagWords, n)
	t.Reset()
	return t
}

// word converts a live entry's tag to its tag word.
func word(tag addr.Tag) scanTag { return scanTag(tag) }

// Find returns the way in [base, base+ways) whose entry is tagged tag, or
// -1 when none is.
func (t TagWords) Find(base, ways int, tag addr.Tag) int {
	want := word(tag)
	for w, st := range t[base : base+ways] {
		if st == want {
			return w
		}
	}
	return -1
}

// Set makes way i live with tag.
func (t TagWords) Set(i int, tag addr.Tag) { t[i] = word(tag) }

// Free empties way i.
func (t TagWords) Free(i int) { t[i] = freeWay }

// Live reports whether way i holds an entry.
func (t TagWords) Live(i int) bool { return t[i] != freeWay }

// Tag returns the tag of way i, which must be live.
func (t TagWords) Tag(i int) addr.Tag { return addr.Tag(t[i]) }

// Twice returns two live ways of [base, base+ways), as offsets from base,
// that carry the same tag; ok is false when the window's tags are unique.
func (t TagWords) Twice(base, ways int) (w, w2 int, ok bool) {
	set := t[base : base+ways]
	for w = range set {
		if set[w] == freeWay {
			continue
		}
		for w2 = w + 1; w2 < len(set); w2++ {
			if set[w2] == set[w] {
				return w, w2, true
			}
		}
	}
	return 0, 0, false
}

// Reset empties every way.
func (t TagWords) Reset() {
	for i := range t {
		t[i] = freeWay
	}
}

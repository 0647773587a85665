package predictor

import (
	"fmt"

	"repro/internal/addr"
)

// TAGE is a compact TAGE direction predictor (Seznec): a bimodal base table
// plus tagged tables indexed with geometrically increasing global-history
// lengths. The longest-history matching table provides the prediction;
// mispredictions allocate into a longer table. This is the "TAGE-like"
// predictor of the paper's Icelake-ish core (Table 3).
type TAGE struct {
	base *Bimodal

	tables []tageTable
	ghist  [8]uint64 // 512 bits of global history, shifted as a unit
	// ghistWords is how many ghist words the longest configured history
	// actually reaches; the per-branch shift stops there (bits beyond the
	// longest history are never read).
	ghistWords int

	// provider bookkeeping between Predict and Update
	provTable int // -1 = base
	provIdx   int

	// Per-branch scratch: Predict derives every table's index and tag (and
	// the base prediction) exactly once; the immediately following Update for
	// the same PC (the sequential-predictor contract) reuses them instead of
	// re-hashing. Valid because the global history only shifts at the end of
	// Update. One-shot: consumed by Update, re-derived on any PC mismatch.
	// The per-table halves live in tageTable (scratchIdx/scratchTag).
	// Flag bytes sit after the words so the struct carries no interior
	// padding.
	scratchPC  addr.VA
	scratchMix uint64 // Mix64(pc>>1), shared with the base table's index
	altPred    bool
	scratchOK  bool
	basePred   bool
}

type tageTable struct {
	histLen int
	idxBits uint
	tagBits uint
	idxMask uint64 // (1<<idxBits)-1, hoisted out of the per-branch hash
	tagMask uint64 // (1<<tagBits)-1
	// Constants of the folded-register shift (see foldShift), precomputed so
	// the per-branch history update carries no division: the outgoing history
	// bit lives at ghist word outWord, bit outBit, and cancels at folded
	// position histLen mod width for each register width.
	outWord     int
	outBit      uint
	idxOutShift uint // histLen % idxBits
	tagOutShift uint // histLen % tagBits

	// Folded-history registers (the circular shift registers of real TAGE
	// hardware): foldIdx/foldTag hold addr.Fold(histWord(histLen), width)
	// for this table's index and tag widths, maintained incrementally as
	// the history shifts. Fold sends history bit p to folded position
	// p mod width, so one shift is a width-bit rotate plus injecting the new
	// bit at 0 and cancelling the outgoing bit at histLen mod width — O(1)
	// per table instead of re-folding the history on every prediction.
	foldIdx uint64
	foldTag uint64

	// This table's half of the Predict→Update scratch (see TAGE.scratchOK).
	scratchIdx int32
	scratchTag uint16

	// tag packs validity and the stored tag into one word: tagValid|tag for
	// a live entry, 0 for a free one. The hot Predict hit check is then a
	// single load and compare.
	tag    []uint16
	ctr    []int8 // -4..3, taken when >= 0
	useful []uint8
}

// tagValid marks a live entry in tageTable.tag. Tags are at most 15 bits, so
// the marker bit never collides and a free slot's 0 never matches a probe
// (probe tags always carry the marker).
const tagValid = 1 << 15

// TAGEConfig sizes the predictor.
type TAGEConfig struct {
	// BaseEntries sizes the bimodal base table (power of two).
	BaseEntries int
	// TableEntries sizes each tagged table (power of two).
	TableEntries int
	// HistLens are the geometric history lengths, shortest first.
	HistLens []int
	// TagBits is the tag width of the tagged tables.
	TagBits uint
}

// DefaultTAGEConfig is a 4-table, ~8 KiB configuration adequate for the
// synthetic workloads' conditional behaviour.
func DefaultTAGEConfig() TAGEConfig {
	return TAGEConfig{
		BaseEntries:  8192,
		TableEntries: 2048,
		HistLens:     []int{8, 16, 32, 64},
		TagBits:      9,
	}
}

// NewTAGE builds the predictor.
func NewTAGE(cfg TAGEConfig) (*TAGE, error) {
	base, err := NewBimodal(cfg.BaseEntries)
	if err != nil {
		return nil, err
	}
	if cfg.TableEntries <= 0 || cfg.TableEntries&(cfg.TableEntries-1) != 0 {
		return nil, fmt.Errorf("predictor: tage table entries %d not a power of two", cfg.TableEntries)
	}
	if len(cfg.HistLens) == 0 {
		return nil, fmt.Errorf("predictor: tage needs at least one history length")
	}
	if cfg.TagBits == 0 || cfg.TagBits > 15 {
		return nil, fmt.Errorf("predictor: tage tag width %d outside 1..15", cfg.TagBits)
	}
	t := &TAGE{base: base, provTable: -1}
	idxBits := uint(0)
	for n := cfg.TableEntries; n > 1; n >>= 1 {
		idxBits++
	}
	prev := 0
	for _, hl := range cfg.HistLens {
		if hl <= prev || hl > 512 {
			return nil, fmt.Errorf("predictor: tage history lengths must increase and stay ≤512")
		}
		prev = hl
		t.tables = append(t.tables, tageTable{
			histLen:     hl,
			idxBits:     idxBits,
			tagBits:     cfg.TagBits,
			idxMask:     1<<idxBits - 1,
			tagMask:     1<<cfg.TagBits - 1,
			outWord:     (hl - 1) >> 6,
			outBit:      uint(hl-1) & 63,
			idxOutShift: uint(hl) % idxBits,
			tagOutShift: uint(hl) % cfg.TagBits,
			tag:         make([]uint16, cfg.TableEntries),
			ctr:         make([]int8, cfg.TableEntries),
			useful:      make([]uint8, cfg.TableEntries),
		})
	}
	t.ghistWords = (prev + 63) / 64
	return t, nil
}

// histWord XORs the low histLen history bits into a single word — foldHist
// minus the final width fold, so one history scan serves both the index and
// the tag hash of a table.
func (t *TAGE) histWord(histLen int) uint64 {
	var out uint64
	bitsLeft := histLen
	word := 0
	for bitsLeft > 0 {
		take := bitsLeft
		if take > 64 {
			take = 64
		}
		chunk := t.ghist[word]
		if take < 64 {
			chunk &= (1 << uint(take)) - 1
		}
		out ^= chunk
		bitsLeft -= take
		word++
	}
	return out
}

// foldHist compresses the low histLen history bits into width bits.
func (t *TAGE) foldHist(histLen int, width uint) uint64 {
	return addr.Fold(t.histWord(histLen), width)
}

func (t *TAGE) index(tb *tageTable, pc addr.VA) int {
	h := addr.Mix64(uint64(pc)>>1) ^ t.foldHist(tb.histLen, tb.idxBits)
	return int(h & ((1 << tb.idxBits) - 1))
}

// tagOf returns pc's probe tag for tb, tagValid included.
func (t *TAGE) tagOf(tb *tageTable, pc addr.VA) uint16 {
	h := addr.Mix64(uint64(pc)>>1+0x9e3779b9) ^ t.foldHist(tb.histLen, tb.tagBits)
	return uint16(h&((1<<tb.tagBits)-1)) | tagValid
}

// Predict predicts a conditional branch at pc.
func (t *TAGE) Predict(pc addr.VA) bool {
	t.provTable = -1
	pcMixIdx := addr.Mix64(uint64(pc) >> 1)
	pcMixTag := addr.Mix64(uint64(pc)>>1 + 0x9e3779b9)
	pred := t.base.predictMixed(pcMixIdx)
	t.basePred = pred
	t.altPred = pred
	for i := range t.tables {
		tb := &t.tables[i]
		idx := int((pcMixIdx ^ tb.foldIdx) & tb.idxMask)
		tag := uint16((pcMixTag^tb.foldTag)&tb.tagMask) | tagValid
		tb.scratchIdx = int32(idx)
		tb.scratchTag = tag
		if tb.tag[idx] == tag {
			t.altPred = pred
			t.provTable = i
			t.provIdx = idx
			pred = tb.ctr[idx] >= 0
		}
	}
	t.scratchPC = pc
	t.scratchOK = true
	t.scratchMix = pcMixIdx
	return pred
}

// slot returns table i's (index, tag) for pc, reusing Predict's scratch when
// Update immediately follows Predict for the same PC and re-deriving from
// the (unshifted) history otherwise.
func (t *TAGE) slot(i int, pc addr.VA) (int, uint16) {
	tb := &t.tables[i]
	if t.scratchOK && t.scratchPC == pc {
		return int(tb.scratchIdx), tb.scratchTag
	}
	return t.index(tb, pc), t.tagOf(tb, pc)
}

// Update trains on the resolved outcome. It must be called right after
// Predict for the same branch (standard sequential-predictor contract).
func (t *TAGE) Update(pc addr.VA, taken bool) {
	correct := true
	if t.provTable >= 0 {
		tb := &t.tables[t.provTable]
		correct = (tb.ctr[t.provIdx] >= 0) == taken
		// Train provider counter.
		if taken && tb.ctr[t.provIdx] < 3 {
			tb.ctr[t.provIdx]++
		}
		if !taken && tb.ctr[t.provIdx] > -4 {
			tb.ctr[t.provIdx]--
		}
		// Usefulness: provider agreed with outcome and alt did not.
		if correct && t.altPred != taken && tb.useful[t.provIdx] < 3 {
			tb.useful[t.provIdx]++
		}
		if !correct && tb.useful[t.provIdx] > 0 {
			tb.useful[t.provIdx]--
		}
	} else {
		var h uint64
		if t.scratchOK && t.scratchPC == pc {
			h = t.scratchMix
			correct = t.basePred == taken
		} else {
			h = addr.Mix64(uint64(pc) >> 1)
			correct = t.base.predictMixed(h) == taken
		}
		t.base.updateMixed(h, taken)
	}

	// Allocate in a longer-history table on a misprediction.
	if !correct && t.provTable < len(t.tables)-1 {
		allocated := false
		for i := t.provTable + 1; i < len(t.tables) && !allocated; i++ {
			tb := &t.tables[i]
			idx, tag := t.slot(i, pc)
			if tb.tag[idx]&tagValid == 0 || tb.useful[idx] == 0 {
				tb.tag[idx] = tag
				if taken {
					tb.ctr[idx] = 0
				} else {
					tb.ctr[idx] = -1
				}
				tb.useful[idx] = 0
				allocated = true
			}
		}
		if !allocated {
			// Decay usefulness along the allocation path.
			for i := t.provTable + 1; i < len(t.tables); i++ {
				tb := &t.tables[i]
				idx, _ := t.slot(i, pc)
				if tb.useful[idx] > 0 {
					tb.useful[idx]--
				}
			}
		}
	}

	// Shift global history, updating the folded registers first (they need
	// the pre-shift outgoing bit). The scratch is invalidated with the
	// shift: indices and tags derived before it are stale for any later
	// branch.
	in := uint64(0)
	if taken {
		in = 1
	}
	for i := range t.tables {
		tb := &t.tables[i]
		out := t.ghist[tb.outWord] >> tb.outBit & 1
		tb.foldIdx = foldShift(tb.foldIdx, tb.idxBits, tb.idxMask, in, out, tb.idxOutShift)
		tb.foldTag = foldShift(tb.foldTag, tb.tagBits, tb.tagMask, in, out, tb.tagOutShift)
	}
	carry := in
	for i := 0; i < t.ghistWords; i++ {
		next := t.ghist[i] >> 63
		t.ghist[i] = t.ghist[i]<<1 | carry
		carry = next
	}
	t.scratchOK = false
}

// foldShift advances a folded-history register by one history shift: rotate
// the width-bit fold left by one (bit p mod width follows bit p to
// (p+1) mod width), inject the incoming bit at position 0, and cancel the
// outgoing bit, whose post-rotate position (histLen mod width) the caller
// precomputed as outShift.
func foldShift(f uint64, width uint, mask, in, out uint64, outShift uint) uint64 {
	f = (f<<1 | f>>(width-1)) & mask
	f ^= in
	f ^= out << outShift
	return f & mask
}

// StorageBits returns the predictor's storage.
func (t *TAGE) StorageBits() uint64 {
	bits := t.base.StorageBits() + 512
	for i := range t.tables {
		tb := &t.tables[i]
		per := uint64(tb.tagBits) + 3 + 2 + 1 // tag + ctr + useful + valid
		bits += uint64(len(tb.tag)) * per
	}
	return bits
}

// Reset returns the predictor to its cold state.
func (t *TAGE) Reset() {
	t.base.Reset()
	for i := range t.tables {
		tb := &t.tables[i]
		for j := range tb.tag {
			tb.tag[j] = 0
			tb.ctr[j] = 0
			tb.useful[j] = 0
		}
		tb.foldIdx = 0
		tb.foldTag = 0
	}
	t.ghist = [8]uint64{}
	t.provTable = -1
	t.scratchOK = false
}

package btb

import "repro/internal/addr"

// ghrpRepl is a simplified GHRP-style predictive replacement policy
// (Ajorpaz et al., ISCA'18 — "Exploring predictive replacement policies for
// instruction cache and branch target buffer", cited by the paper as
// orthogonal work). Each entry carries a *signature* hashing its PC with
// the global history at insertion; two small counter tables vote on whether
// a signature's entries tend to die without reuse. Victim selection prefers
// predicted-dead entries and falls back to SRRIP order, which the BTB keeps
// in its SRRIPSets at ghrpRRIPBits per way.
//
// The policy is exercised by the ext-repl ablation; the paper's designs all
// use plain SRRIP.
type ghrpRepl struct {
	sig []uint16

	tables *ghrpTables
}

// ghrpRRIPBits is the RRPV width of GHRP's fallback SRRIP order.
const ghrpRRIPBits = 2

// ghrpTables are shared across all sets of one BTB (global predictor state).
type ghrpTables struct {
	t1, t2  []uint8 // 2-bit dead counters, differently hashed
	history uint64
}

const ghrpTableBits = 12

func newGHRPTables() *ghrpTables {
	n := 1 << ghrpTableBits
	return &ghrpTables{t1: make([]uint8, n), t2: make([]uint8, n)}
}

// note folds a touched signature into the global history.
func (g *ghrpTables) note(sig uint16) {
	g.history = g.history<<3 ^ uint64(sig)
}

// signature mixes a PC with the current history.
func (g *ghrpTables) signature(pc addr.VA) uint16 {
	return uint16(addr.Mix64(uint64(pc)>>1^g.history*0x9e3779b97f4a7c15) & 0xffff) //pdede:bitwidth-ok 16-bit GHRP signature, not an address field
}

func (g *ghrpTables) idx1(sig uint16) int { return int(sig) & (len(g.t1) - 1) }
func (g *ghrpTables) idx2(sig uint16) int {
	return int(addr.Mix64(uint64(sig))) & (len(g.t2) - 1)
}

// dead reports whether both tables predict the signature dies unreused.
func (g *ghrpTables) dead(sig uint16) bool {
	return g.t1[g.idx1(sig)] >= 2 && g.t2[g.idx2(sig)] >= 2
}

// trainDead is called when an entry is evicted without having been reused.
func (g *ghrpTables) trainDead(sig uint16) {
	if i := g.idx1(sig); g.t1[i] < 3 {
		g.t1[i]++
	}
	if i := g.idx2(sig); g.t2[i] < 3 {
		g.t2[i]++
	}
}

// trainLive is called when an entry is reused after insertion.
func (g *ghrpTables) trainLive(sig uint16) {
	if i := g.idx1(sig); g.t1[i] > 0 {
		g.t1[i]--
	}
	if i := g.idx2(sig); g.t2[i] > 0 {
		g.t2[i]--
	}
}

func newGHRPRepl(ways int, tables *ghrpTables) *ghrpRepl {
	return &ghrpRepl{
		sig:    make([]uint16, ways),
		tables: tables,
	}
}

// touchPC records a hit of pc on way w.
func (r *ghrpRepl) touchPC(w int, pc addr.VA) {
	r.tables.trainLive(r.sig[w])
	r.tables.note(r.sig[w])
}

// insertPC records an allocation of pc into way w, training the tables with
// the displaced entry's fate (evicted entries that were never reused since
// insertion keep their long-re-reference RRPV, approximated here by "was a
// SRRIP victim").
func (r *ghrpRepl) insertPC(w int, pc addr.VA, displacedLive bool) {
	if r.sig[w] != 0 && !displacedLive {
		r.tables.trainDead(r.sig[w])
	}
	r.sig[w] = r.tables.signature(pc)
	r.tables.note(r.sig[w])
}

// deadWay returns the first predicted-dead way, or -1 when the caller
// should fall back to SRRIP order.
func (r *ghrpRepl) deadWay() int {
	for w, s := range r.sig {
		if s != 0 && r.tables.dead(s) {
			return w
		}
	}
	return -1
}

// bits per way: ghrpRRIPBits of SRRIP + 16 signature (the global tables add
// 2×2^12×2 bits shared across the whole BTB, accounted by the caller).
func (r *ghrpRepl) bits() uint64 { return ghrpRRIPBits + 16 }

func (r *ghrpRepl) reset() {
	for w := range r.sig {
		r.sig[w] = 0
	}
}

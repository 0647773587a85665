package main

import (
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/predictor"
)

// layerCosts is one isolated replay of the simulator's layers over a set
// of streams: each layer is driven alone, through its public API, with the
// calls the core makes for each record, and timed as a whole.
type layerCosts struct {
	records int

	tage            time.Duration
	conds, condHits int

	ras                   time.Duration
	rasOps, rets, rasHits int

	btb map[string]*btbCost

	fetch                       time.Duration
	icMissRecs, l2Acc, l2Misses int
}

// btbCost is one design's Lookup+Update replay. Returns are skipped, as
// the core routes them to the RAS.
type btbCost struct {
	t                           time.Duration
	ops, taken, takenHits, fast int
}

// replayLayers replays every stream through fresh structures of each layer
// in turn, as the core would build them for that stream.
func replayLayers(streams []stream, designs []experiments.Design) (*layerCosts, error) {
	lc := &layerCosts{btb: map[string]*btbCost{}}
	p := core.Icelake()
	for i := range streams {
		recs := streams[i].recs
		lc.records += len(recs)

		tage, err := predictor.NewTAGE(predictor.DefaultTAGEConfig())
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		for _, b := range recs {
			if b.Kind.IsConditional() {
				if tage.Predict(b.PC) == b.Taken {
					lc.condHits++
				}
				tage.Update(b.PC, b.Taken)
				lc.conds++
			}
		}
		lc.tage += time.Since(t0)

		ras := predictor.NewRAS(p.RASEntries)
		t0 = time.Now()
		for _, b := range recs {
			switch {
			case b.Kind.IsReturn():
				if t, ok := ras.Pop(); ok && t == b.Target {
					lc.rasHits++
				}
				lc.rets++
				lc.rasOps++
			case b.Kind.IsCall():
				ras.Push(b.Fallthrough())
				lc.rasOps++
			}
		}
		lc.ras += time.Since(t0)

		for _, d := range designs {
			tp, err := d.New()
			if err != nil {
				return nil, err
			}
			c := lc.btb[d.Name]
			if c == nil {
				c = &btbCost{}
				lc.btb[d.Name] = c
			}
			t0 = time.Now()
			for _, b := range recs {
				if b.Kind.IsReturn() {
					continue
				}
				look := tp.Lookup(b.PC)
				tp.Update(b, look)
				c.ops++
				if b.Taken {
					c.taken++
					if look.Hit && look.Target == b.Target {
						c.takenHits++
					}
					if look.Hit && look.ExtraLatency == 0 {
						c.fast++
					}
				}
			}
			c.t += time.Since(t0)
		}

		ic, err := cache.New(p.ICacheBytes, p.ICacheWays, p.ICacheLineBytes)
		if err != nil {
			return nil, err
		}
		l2, err := cache.New(p.L2Bytes, p.L2Ways, p.ICacheLineBytes)
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		for _, b := range recs {
			start := b.PC.Add(-uint64(b.BlockLen-1) * isa.InstrBytes)
			if ic.AccessRange(start, b.PC) > 0 {
				lc.icMissRecs++
				lc.l2Acc++
				if l2.AccessRange(start, b.PC) > 0 {
					lc.l2Misses++
				}
			}
		}
		lc.fetch += time.Since(t0)
	}
	return lc, nil
}

// medianLayers combines replays of the same streams, keeping each layer's
// median time. The counts are the same in every replay.
func medianLayers(runs []*layerCosts) *layerCosts {
	med := func(get func(*layerCosts) time.Duration) time.Duration {
		ds := make([]time.Duration, len(runs))
		for i, lc := range runs {
			ds[i] = get(lc)
		}
		return time.Duration(must(median(seconds(ds))) * float64(time.Second))
	}
	out := runs[0]
	out.tage = med(func(lc *layerCosts) time.Duration { return lc.tage })
	out.ras = med(func(lc *layerCosts) time.Duration { return lc.ras })
	out.fetch = med(func(lc *layerCosts) time.Duration { return lc.fetch })
	for name, c := range out.btb {
		c.t = med(func(lc *layerCosts) time.Duration { return lc.btb[name].t })
	}
	return out
}

// perRec is d in ns per record of the replay.
func (lc *layerCosts) perRec(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / float64(lc.records)
}

// set records the layer metrics.
func (lc *layerCosts) set(r *run) {
	r.set("predictor.tage_ns_per_cond", float64(lc.tage.Nanoseconds())/float64(lc.conds))
	r.set("predictor.tage_accuracy", float64(lc.condHits)/float64(lc.conds))
	r.set("predictor.ras_ns_per_op", float64(lc.ras.Nanoseconds())/float64(lc.rasOps))
	r.set("predictor.ras_hit_rate", float64(lc.rasHits)/float64(lc.rets))
	for name, c := range lc.btb {
		r.set("btb."+name+".ns_per_op", float64(c.t.Nanoseconds())/float64(c.ops))
		r.set("btb."+name+".taken_hit_rate", float64(c.takenHits)/float64(c.taken))
	}
	for _, name := range pdedeDesigns {
		if c := lc.btb[name]; c != nil {
			r.set("pdede."+name+".delta_served_frac", float64(c.fast)/float64(c.taken))
		}
	}
	r.set("cache.fetch_ns_per_rec", lc.perRec(lc.fetch))
	r.set("cache.icache_miss_rate", float64(lc.icMissRecs)/float64(lc.records))
	r.set("cache.l2_miss_rate", float64(lc.l2Misses)/float64(max(lc.l2Acc, 1)))
}

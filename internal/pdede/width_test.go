package pdede_test

import (
	"context"
	"testing"

	"repro/internal/addr"
	"repro/internal/btb"
	"repro/internal/isa"
	"repro/internal/oracle"
	"repro/internal/pdede"
	"repro/internal/workload"
)

// TestPointerWidthsAtExperimentSizes runs the largest Page-BTB and
// Region-BTB any experiment builds, fig12b's 16K-entry point (4,096 pages)
// and ext-tables' two largest points, and the largest Validate accepts,
// through two checks that a BTBM pointer too narrow for its table would
// fail:
//
//   - round trip: a branch to each of PageEntries distinct pages, spread
//     over RegionEntries regions, must look up its exact target right
//     after its update allocates it, whichever Page-BTB and Region-BTB
//     slots its components landed in;
//   - differential: a catalog app through oracle.DiffDesign with audits
//     on must show no semantic divergence and no audit failure.
//
// The audit fails a truncated pointer that lands on a free slot. One that
// lands on a live slot reads another observed page, which the oracle's
// classifier calls a legal recomposition; the round trip fails that one.
func TestPointerWidthsAtExperimentSizes(t *testing.T) {
	app, ok := workload.CatalogByName("Server-oltp-primary")
	if !ok {
		t.Fatal("catalog has no Server-oltp-primary")
	}
	_, tr, err := workload.Build(app, 400_000)
	if err != nil {
		t.Fatal(err)
	}
	me := func(pages, regions int) pdede.Config {
		c := pdede.MultiEntryConfig()
		c.PageEntries, c.RegionEntries = pages, regions
		return c
	}
	for _, tc := range []struct {
		name string
		cfg  pdede.Config
	}{
		{"fig12b-pdede-me-16384", pdede.ScaledFromBaseline(16384, pdede.MultiEntry)},
		{"ext-tables-pages1024-regions8", me(1024, 8)},
		{"ext-tables-pages2048-regions4", me(2048, 4)},
		{"validate-limit-pages65536-regions256", me(1<<16, 1<<8)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := pdede.New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.cfg.PageEntries; i++ {
				pc := addr.Build(1, addr.PageNum(uint64(i)), 0x40)
				tgt := addr.Build(addr.RegionID(uint64(2+i%tc.cfg.RegionEntries)), addr.PageNum(uint64(i)), 0x80)
				p.Update(isa.Branch{PC: pc, Target: tgt, BlockLen: 4, Kind: isa.UncondDirect, Taken: true}, btb.Lookup{})
				if l := p.Lookup(pc); !l.Hit || l.Target != tgt {
					t.Fatalf("branch %d: lookup right after allocation = %+v, want target %v", i, l, tgt)
				}
			}

			rep, err := oracle.DiffDesign(context.Background(), p, tr, oracle.Options{AuditEvery: 2048})
			if err != nil {
				t.Fatal(err)
			}
			if err := rep.Err(); err != nil {
				t.Error(err)
			}
			if rep.Compared == 0 {
				t.Error("differential run compared zero predictions")
			}
			t.Log(rep.Summary())
		})
	}
}

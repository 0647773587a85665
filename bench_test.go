package pdedesim_test

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper (BenchmarkFig…/BenchmarkTable…), each running the corresponding
// experiment end-to-end on a reduced suite, plus microbenchmarks of the hot
// simulation paths. The full-scale reproductions (102 apps, long windows)
// are produced by `go run ./cmd/pdede-experiments -run all`; the benches
// exercise identical code with smaller inputs so `go test -bench=.` stays
// minutes, not hours.

import (
	"io"
	"testing"

	pdedesim "repro"
	"repro/internal/addr"
	"repro/internal/btb"
	"repro/internal/isa"
	"repro/internal/pdede"
	"repro/internal/predictor"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchSuite is the reduced experiment scale used by the per-figure benches.
func benchSuite() pdedesim.SuiteOptions {
	return pdedesim.SuiteOptions{
		Apps:         4,
		TotalInstrs:  600_000,
		WarmupInstrs: 250_000,
	}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := pdedesim.RunExperiment(id, benchSuite(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One benchmark per paper artifact -------------------------------------

func BenchmarkFig1FrontendStalls(b *testing.B)    { benchExperiment(b, "fig1") }
func BenchmarkFig3TakenRates(b *testing.B)        { benchExperiment(b, "fig3") }
func BenchmarkFig4BranchMix(b *testing.B)         { benchExperiment(b, "fig4") }
func BenchmarkFig5RuntimePlot(b *testing.B)       { benchExperiment(b, "fig5") }
func BenchmarkFig6TargetsPerPage(b *testing.B)    { benchExperiment(b, "fig6") }
func BenchmarkFig7UniqueEntities(b *testing.B)    { benchExperiment(b, "fig7") }
func BenchmarkFig8PageDistance(b *testing.B)      { benchExperiment(b, "fig8") }
func BenchmarkFig10HeadlineIPC(b *testing.B)      { benchExperiment(b, "fig10") }
func BenchmarkFig11aAblation(b *testing.B)        { benchExperiment(b, "fig11a") }
func BenchmarkFig11bLatencyFTQ(b *testing.B)      { benchExperiment(b, "fig11b") }
func BenchmarkFig11cTwoLevel(b *testing.B)        { benchExperiment(b, "fig11c") }
func BenchmarkFig12aShotgun(b *testing.B)         { benchExperiment(b, "fig12a") }
func BenchmarkFig12bLargerBTBs(b *testing.B)      { benchExperiment(b, "fig12b") }
func BenchmarkFig12cIsoMPKI(b *testing.B)         { benchExperiment(b, "fig12c") }
func BenchmarkTable2Storage(b *testing.B)         { benchExperiment(b, "table2") }
func BenchmarkTable4AccessLatency(b *testing.B)   { benchExperiment(b, "table4") }
func BenchmarkSec55PerfectDirection(b *testing.B) { benchExperiment(b, "sec55") }
func BenchmarkSec56ITTAGE(b *testing.B)           { benchExperiment(b, "sec56") }
func BenchmarkSec57ReturnsInBTB(b *testing.B)     { benchExperiment(b, "sec57") }
func BenchmarkSec511DeeperPipelines(b *testing.B) { benchExperiment(b, "sec511") }

// --- Microbenchmarks of the hot paths -------------------------------------

func benchBranches(n int) []isa.Branch {
	cfg := workload.Default()
	cfg.StaticBranches = 8000
	_, tr, err := workload.Build(cfg, uint64(n*4))
	if err != nil {
		panic(err)
	}
	return tr.Records
}

func BenchmarkBaselineLookupUpdate(b *testing.B) {
	recs := benchBranches(200_000)
	bt, _ := btb.NewBaseline(btb.BaselineConfig{Entries: 4096})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := recs[i%len(recs)]
		l := bt.Lookup(r.PC)
		bt.Update(r, l)
	}
}

func BenchmarkPDedeLookupUpdate(b *testing.B) {
	recs := benchBranches(200_000)
	pd, _ := pdede.New(pdede.MultiEntryConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := recs[i%len(recs)]
		l := pd.Lookup(r.PC)
		pd.Update(r, l)
	}
}

func BenchmarkTAGEPredictUpdate(b *testing.B) {
	recs := benchBranches(200_000)
	tg, _ := predictor.NewTAGE(predictor.DefaultTAGEConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := recs[i%len(recs)]
		tg.Predict(r.PC)
		tg.Update(r.PC, r.Taken)
	}
}

func BenchmarkITTAGEPredictUpdate(b *testing.B) {
	it, _ := predictor.NewITTAGE(predictor.Default64KBConfig())
	pcs := make([]addr.VA, 256)
	for i := range pcs {
		pcs[i] = addr.Build(1, addr.PageNum(uint64(i)), 64)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := pcs[i%len(pcs)]
		it.Predict(pc)
		it.Update(pc, pc.Add(128))
		it.Observe(i&1 == 0)
	}
}

func BenchmarkTraceGeneration(b *testing.B) {
	cfg := workload.Default()
	cfg.StaticBranches = 8000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := workload.Build(cfg, 500_000); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(500_000, "instrs/op")
}

func BenchmarkCoreSimulation(b *testing.B) {
	app := workload.Default()
	app.StaticBranches = 8000
	_, tr, err := workload.Build(app, 500_000)
	if err != nil {
		b.Fatal(err)
	}
	opts := pdedesim.DefaultSimOptions()
	opts.WarmupInstrs = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pdedesim.SimulateTrace(app, tr, pdedesim.PDedeMultiEntry(), opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Instructions()), "instrs/op")
}

func BenchmarkCoreSimulationPipeline(b *testing.B) {
	app := workload.Default()
	app.StaticBranches = 8000
	_, tr, err := workload.Build(app, 500_000)
	if err != nil {
		b.Fatal(err)
	}
	opts := pdedesim.DefaultSimOptions()
	opts.WarmupInstrs = 0
	opts.UsePipelineModel = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pdedesim.SimulateTrace(app, tr, pdedesim.PDedeMultiEntry(), opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Instructions()), "instrs/op")
}

// BenchmarkCoreSimulationAudit guards the cost of the invariant-audit hook:
// the "off" case must track BenchmarkCoreSimulation (a disabled audit is one
// integer compare per record), and the "every-4096" case shows what
// -selfcheck actually costs.
func BenchmarkCoreSimulationAudit(b *testing.B) {
	app := workload.Default()
	app.StaticBranches = 8000
	_, tr, err := workload.Build(app, 500_000)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name  string
		every uint64
	}{
		{"off", 0},
		{"every-4096", 4096},
	} {
		b.Run(bc.name, func(b *testing.B) {
			opts := pdedesim.DefaultSimOptions()
			opts.WarmupInstrs = 0
			opts.AuditEvery = bc.every
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pdedesim.SimulateTrace(app, tr, pdedesim.PDedeMultiEntry(), opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(tr.Instructions()), "instrs/op")
		})
	}
}

func BenchmarkTraceCodecRoundTrip(b *testing.B) {
	cfg := workload.Default()
	cfg.StaticBranches = 4000
	_, tr, err := workload.Build(cfg, 200_000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr, pw := io.Pipe()
		done := make(chan error, 1)
		go func() {
			err := trace.Write(pw, tr.TraceName, tr.Open())
			pw.CloseWithError(err)
			done <- err
		}()
		dec, err := trace.NewDecoder(pr)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := trace.Collect(dec.Name(), dec); err != nil {
			b.Fatal(err)
		}
		if err := <-done; err != nil {
			b.Fatal(err)
		}
	}
}

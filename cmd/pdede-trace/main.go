// Command pdede-trace generates, inspects, converts and exports branch
// traces — synthetic or ingested from real-machine capture formats.
//
// Usage:
//
//	pdede-trace -app Browser-wasm-runtime -stats
//	pdede-trace -app Server-oltp-primary -o oltp.pdtz    # write v2 trace
//	pdede-trace -i oltp.pdtz -stats                      # read it back
//	pdede-trace -app Browser-imaging -dump 20            # show first records
//
// Real-trace ingestion (ChampSim binary, perf script LBR text, and the
// native .pdt/.pdtz codecs, each optionally gzipped; format is sniffed from
// content, -from pins it):
//
//	pdede-trace -i leela.champsimtrace.gz -stats
//	pdede-trace -i lbr.txt -from perf -o lbr.pdtz        # convert
//	pdede-trace -i out.pdt -convert pdtz -o out.pdtz     # transcode v1 -> v2
//	pdede-trace -i leela.champsimtrace.gz -census        # vs synthetic suite
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"

	pdedesim "repro"
	"repro/internal/analysis"
	"repro/internal/atomicio"
	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/trace/ingest"
)

func main() {
	var (
		appName = flag.String("app", "", "catalog application to synthesize")
		instrs  = flag.Uint64("instrs", 3_500_000, "trace length in instructions")
		out     = flag.String("o", "", "write binary trace to file (.pdtz extension selects the v2 codec)")
		in      = flag.String("i", "", "read a trace file instead of synthesizing (pdt, pdtz, champsim, perf; optionally .gz)")
		from    = flag.String("from", "auto", "input container format: auto, pdt, pdtz, champsim, perf")
		convert = flag.String("convert", "", "output codec for -o: pdt or pdtz (default: by -o extension)")
		stats   = flag.Bool("stats", false, "print §3 characterization")
		census  = flag.Bool("census", false, "print the §3 census next to the synthetic suite's range")
		capps   = flag.Int("census-apps", 24, "synthetic apps sampled for the -census comparison (0 = all)")
		cinstrs = flag.Uint64("census-instrs", 1_000_000, "instructions per synthetic app in the -census comparison")
		reuse   = flag.Bool("reuse", false, "print the taken-PC reuse-distance profile")
		dump    = flag.Int("dump", 0, "print the first N records")
	)
	flag.Parse()

	var tr *trace.Memory
	switch {
	case *in != "":
		format, err := ingest.ParseFormat(*from)
		if err != nil {
			fatal(err)
		}
		o, err := ingest.Open(*in, format)
		if err != nil {
			fatal(err)
		}
		defer o.Close()
		tr, err = trace.Collect(o.Name(), o.Open())
		if err != nil {
			fatal(err)
		}
		fmt.Printf("ingested %s as %s\n", *in, o.Format)
		if st := o.ChampSimStats; st != nil {
			fmt.Printf("champsim: %d instructions, %d branches (%d unclassifiable), not-taken targets: %d memoized / %d fallthrough\n",
				st.Instructions, st.Branches, st.Other, st.NotTakenMemo, st.NotTakenFall)
		}
		if st := o.PerfStats; st != nil {
			fmt.Printf("perf: %d lines, %d samples, %d entries (%d skipped, %d untyped)\n",
				st.Lines, st.Samples, st.Entries, st.Skipped, st.Untyped)
		}
	case *appName != "":
		app, err := pdedesim.AppByName(*appName)
		if err != nil {
			fatal(err)
		}
		tr, err = pdedesim.BuildTrace(app, *instrs)
		if err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("need -app or -i (see -h)"))
	}

	fmt.Printf("trace %s: %d records, %d instructions\n", tr.TraceName, len(tr.Records), tr.Instructions())

	if *out != "" {
		codec := *convert
		if codec == "" {
			if strings.HasSuffix(*out, ".pdtz") {
				codec = "pdtz"
			} else {
				codec = "pdt"
			}
		}
		size, err := writeTrace(*out, codec, tr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%s, %.1f MB, %.2f bytes/record)\n",
			*out, codec, float64(size)/1e6, float64(size)/float64(len(tr.Records)))
	}

	if *dump > 0 {
		n := *dump
		if n > len(tr.Records) {
			n = len(tr.Records)
		}
		for i := 0; i < n; i++ {
			b := tr.Records[i]
			fmt.Printf("%6d %-14s pc=%v -> %v taken=%v block=%d\n",
				i, b.Kind, b.PC, b.Target, b.Taken, b.BlockLen)
		}
	}

	if *stats {
		c, err := analysis.Characterize(tr.Open())
		if err != nil {
			fatal(err)
		}
		tg, rg, pg, of := c.UniqueShare()
		fmt.Printf(`
dynamic branches      %d (taken %.1f%%)
static branch PCs     %d (taken %d)
class mix (taken)     cond %.1f%%  uncond %.1f%%  indirect %.1f%%  return %.1f%%
unique targets        %d (%.1f%% of taken PCs)
unique regions        %d (%.3f%%)
unique pages          %d (%.2f%%)
unique offsets        %d (%.1f%%)
targets per page      %.1f
targets per region    %.0f
same-page (dynamic)   %.1f%%
`,
			c.DynBranches, 100*c.DynTakenRate(),
			c.StaticPCs, c.StaticTakenPCs,
			100*c.ClassShare(isa.ClassCondDirect), 100*c.ClassShare(isa.ClassUncondDirect),
			100*c.ClassShare(isa.ClassIndirect), 100*c.ClassShare(isa.ClassReturn),
			c.UniqueTargets, 100*tg,
			c.UniqueRegions, 100*rg,
			c.UniquePages, 100*pg,
			c.UniqueOffsets, 100*of,
			c.TargetsPerPage(), c.TargetsPerRegion(),
			100*c.DynSamePageRate())
	}
	if *census {
		if err := runCensus(tr, *capps, *cinstrs); err != nil {
			fatal(err)
		}
	}
	if *reuse {
		u, err := analysis.ReuseProfile(tr.Open())
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\ntaken-PC working set: %d\n", u.WorkingSet())
		fmt.Printf("stack distance P50/P90/P99: %d / %d / %d\n",
			u.Percentile(50), u.Percentile(90), u.Percentile(99))
		for _, c := range []int{1024, 2048, 4096, 8192, 16384} {
			fmt.Printf("LRU miss rate @%5d entries: %.1f%%\n", c, 100*u.MissRateAt(c))
		}
	}
}

// writeTrace encodes tr with codec ("pdt" or "pdtz") and atomically
// replaces path with the encoding, returning its size in bytes. An unknown
// codec is rejected before path is touched. The trace is already in memory,
// and its encoding takes a few bytes per record, so it is built whole.
func writeTrace(path, codec string, tr *trace.Memory) (int, error) {
	var buf bytes.Buffer
	var err error
	switch codec {
	case "pdt":
		err = trace.Write(&buf, tr.TraceName, tr.Open())
	case "pdtz":
		err = trace.WritePdtz(&buf, tr.TraceName, tr.Open())
	default:
		return 0, fmt.Errorf("unknown -convert codec %q (want pdt or pdtz)", codec)
	}
	if err != nil {
		return 0, err
	}
	return buf.Len(), atomicio.WriteFile(path, buf.Bytes(), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pdede-trace:", err)
	os.Exit(1)
}

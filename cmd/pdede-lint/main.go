// pdede-lint is the repository's custom static-analysis suite: three
// analyzers that enforce at compile time the contracts the runtime
// verification machinery (differential oracle, deep audits) checks at run
// time. Lookup purity, the allocation-free per-record path, the
// registration of every design in the oracle sweep, the address-field
// widths and the lock discipline are witnessed at run time instead
// (DESIGN.md §6.2's ledger).
//
//	determinism   no wall clock, global rand, or order-sensitive map
//	              iteration in simulation/report packages
//	atomicwrite   checkpoint/report files go through atomicio
//	addrdomain    RegionID/PageNum/PageOffset/SetIndex/Tag values never
//	              cross domains through conversions or comparisons
//
// Usage:
//
//	pdede-lint [flags] [packages]          # like go vet ./...
//
// Packages load via `go list -export` (build-cache only, no network).
// Exit status: 0 clean, 1 findings, 2 operational error.
//
// With -json, findings are emitted to stdout as a JSON array of
// {file, line, col, analyzer, message} objects (empty array when clean) for
// CI annotation tooling; the exit-status contract is unchanged.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis/addrdomain"
	"repro/internal/analysis/atomicwrite"
	"repro/internal/analysis/determinism"
	"repro/internal/analysis/lintkit"
)

// suite is the full analyzer set, in report order.
func suite() []*lintkit.Analyzer {
	return []*lintkit.Analyzer{
		determinism.Analyzer,
		atomicwrite.Analyzer,
		addrdomain.Analyzer,
	}
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("pdede-lint", flag.ContinueOnError)
	list := fs.Bool("list", false, "list analyzers and exit")
	only := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	dir := fs.String("C", "", "change to this directory before loading packages")
	asJSON := fs.Bool("json", false, "emit diagnostics to stdout as a JSON array")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: pdede-lint [flags] [packages]\n\n")
		fs.PrintDefaults()
		fmt.Fprintf(fs.Output(), "\nanalyzers:\n")
		for _, a := range suite() {
			fmt.Fprintf(fs.Output(), "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range suite() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pdede-lint:", err)
		return 2
	}

	pkgs, err := lintkit.Load(*dir, fs.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pdede-lint:", err)
		return 2
	}
	diags, err := lintkit.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pdede-lint:", err)
		return 2
	}
	if *asJSON {
		if err := writeJSON(os.Stdout, diags); err != nil {
			fmt.Fprintln(os.Stderr, "pdede-lint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(os.Stderr, d)
		}
		if len(diags) > 0 {
			fmt.Fprintf(os.Stderr, "pdede-lint: %d finding(s)\n", len(diags))
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// jsonDiag is the -json wire form of one finding. Field names are part of
// the CI contract (ci.yml's lint job turns them into annotations with jq).
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func writeJSON(w *os.File, diags []lintkit.Diagnostic) error {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiag{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func selectAnalyzers(only string) ([]*lintkit.Analyzer, error) {
	all := suite()
	if only == "" {
		return all, nil
	}
	byName := map[string]*lintkit.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*lintkit.Analyzer
	for _, name := range strings.Split(only, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			names := make([]string, len(all))
			for i, a := range all {
				names[i] = a.Name
			}
			return nil, fmt.Errorf("unknown analyzer %q; valid analyzers: %s",
				name, strings.Join(names, ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

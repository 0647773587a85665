package lintkit_test

import (
	"go/ast"
	"go/token"
	"testing"

	"repro/internal/analysis/lintkit"
)

// TestLoadRealPackage exercises the offline loader end-to-end against this
// repository: go list -export for dependency export data, source
// type-checking for the target.
func TestLoadRealPackage(t *testing.T) {
	pkgs, err := lintkit.Load("../../..", "./internal/addr")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	if pkg.Types == nil || pkg.TypesInfo == nil {
		t.Fatal("package not type-checked")
	}
	if !lintkit.PathHasSuffix(pkg.ImportPath, "internal/addr") {
		t.Fatalf("unexpected import path %q", pkg.ImportPath)
	}
	if pkg.Types.Scope().Lookup("VABits") == nil {
		t.Fatal("addr.VABits not in scope: type-check incomplete")
	}
	// TypesInfo must be populated: every file identifier resolves.
	if len(pkg.TypesInfo.Defs) == 0 || len(pkg.TypesInfo.Uses) == 0 {
		t.Fatal("TypesInfo empty")
	}
}

// TestLoadResolvesDeps checks that a package importing others in the module
// type-checks against their export data.
func TestLoadResolvesDeps(t *testing.T) {
	pkgs, err := lintkit.Load("../../..", "./internal/btb")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	var sawAddr bool
	for _, imp := range pkgs[0].Types.Imports() {
		if lintkit.PathHasSuffix(imp.Path(), "internal/addr") {
			sawAddr = true
			if imp.Scope().Lookup("Mix64") == nil {
				t.Fatal("addr export data incomplete: Mix64 missing")
			}
		}
	}
	if !sawAddr {
		t.Fatal("btb does not see its addr import")
	}
}

func TestPathHasSuffix(t *testing.T) {
	cases := []struct {
		path, suffix string
		want         bool
	}{
		{"repro/internal/btb", "internal/btb", true},
		{"internal/btb", "internal/btb", true},
		{"fix/internal/btb", "internal/btb", true},
		{"repro/internal/btbx", "internal/btb", false},
		{"repro/xinternal/btb", "internal/btb", false},
		{"repro/internal/btb/deep", "internal/btb", false},
	}
	for _, c := range cases {
		if got := lintkit.PathHasSuffix(c.path, c.suffix); got != c.want {
			t.Errorf("PathHasSuffix(%q, %q) = %v, want %v", c.path, c.suffix, got, c.want)
		}
	}
}

func TestSortDiagnosticsAndString(t *testing.T) {
	ds := []lintkit.Diagnostic{
		{Pos: token.Position{Filename: "b.go", Line: 2, Column: 1}, Analyzer: "x", Message: "second"},
		{Pos: token.Position{Filename: "a.go", Line: 9, Column: 3}, Analyzer: "x", Message: "first"},
		{Pos: token.Position{Filename: "b.go", Line: 2, Column: 1}, Analyzer: "a", Message: "tie"},
	}
	lintkit.SortDiagnostics(ds)
	if ds[0].Pos.Filename != "a.go" || ds[1].Analyzer != "a" || ds[2].Analyzer != "x" {
		t.Fatalf("bad order: %v", ds)
	}
	if got := ds[0].String(); got != "a.go:9:3: first (x)" {
		t.Fatalf("String() = %q", got)
	}
}

// TestDirectiveParsing checks the //pdede: directive forms against a file
// loaded through the real pipeline: ByCategory's map range carries a
// //pdede:nondet-ok escape and its reason on the same line.
func TestDirectiveParsing(t *testing.T) {
	pkgs, err := lintkit.Load("../../..", "./internal/experiments")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	probe := &lintkit.Analyzer{Name: "probe", Doc: "directive probe", Run: func(pass *lintkit.Pass) error {
		for _, file := range pass.Files {
			for _, d := range pass.FileDirectives(file) {
				pass.Reportf(d.Pos, "%s: %s", d.Name, d.Args)
			}
			ast.Inspect(file, func(n ast.Node) bool {
				if rng, ok := n.(*ast.RangeStmt); ok && pass.NodeHasDirective(file, rng, "nondet-ok") {
					pass.Report(rng.Pos(), "escaped range")
				}
				return true
			})
		}
		return nil
	}}
	diags, err := lintkit.Run(pkgs, []*lintkit.Analyzer{probe})
	if err != nil {
		t.Fatal(err)
	}
	const want = "nondet-ok: each slice is sorted independently; iteration order cannot show"
	if len(diags) != 2 || diags[0].Message != "escaped range" || diags[1].Message != want ||
		diags[0].Pos.Line != diags[1].Pos.Line {
		t.Fatalf("want ByCategory's range and its %q directive on one line, got %v", want, diags)
	}
}

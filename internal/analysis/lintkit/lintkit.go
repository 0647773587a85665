// Package lintkit is a self-contained static-analysis framework in the
// spirit of golang.org/x/tools/go/analysis, built only on the standard
// library so the repository stays dependency-free.
//
// It provides the three pieces a custom linter needs:
//
//   - Analyzer/Pass/Diagnostic — the per-package analysis model. An
//     Analyzer receives one fully type-checked package per Pass and reports
//     position-anchored diagnostics.
//   - a loader (Load) that type-checks packages of any module offline by
//     shelling out to `go list -export` and reading the compiler's export
//     data for dependencies — the same data `go vet` hands its tools.
//   - directive handling for the repository's `//pdede:` comment
//     directives (`//pdede:nondet-ok`, `//pdede:raw-write-ok`, ...).
//
// The concrete analyzers live in sibling packages (determinism,
// atomicwrite, addrdomain); cmd/pdede-lint drives them.
package lintkit

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check. Run is invoked once per loaded
// package with a fully populated Pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -run filters. It must
	// be a valid identifier.
	Name string
	// Doc is a one-paragraph description: first line is a summary.
	Doc string
	// Run executes the check. Diagnostics go through Pass.Report/Reportf;
	// the error return is for analysis failures (bad configuration,
	// impossible state), not findings.
	Run func(*Pass) error
}

// Pass is the interface between one Analyzer and one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
	// directives caches per-file parsed //pdede: directives.
	directives map[*ast.File][]Directive
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Report records a diagnostic at pos.
func (p *Pass) Report(pos token.Pos, msg string) {
	p.report(Diagnostic{Pos: p.Fset.Position(pos), Analyzer: p.Analyzer.Name, Message: msg})
}

// Reportf is Report with formatting.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(pos, fmt.Sprintf(format, args...))
}

// PathHasSuffix reports whether an import path ends with suffix on a path
// component boundary ("repro/internal/btb" matches "internal/btb" but
// "internal/btbx" does not). It is how analyzers scope themselves to the
// simulator packages while remaining testable against fixture modules that
// mirror the real layout under a different module name.
func PathHasSuffix(path, suffix string) bool {
	if path == suffix {
		return true
	}
	return strings.HasSuffix(path, "/"+suffix)
}

// InScope reports whether the pass's package matches any of the import-path
// suffixes.
func (p *Pass) InScope(suffixes []string) bool {
	for _, s := range suffixes {
		if PathHasSuffix(p.Pkg.Path(), s) {
			return true
		}
	}
	return false
}

// Directive is one parsed `//pdede:name args` comment.
type Directive struct {
	Pos  token.Pos
	Name string // e.g. "nondet-ok", "raw-write-ok"
	Args string // remainder of the line, space-trimmed
}

// DirectivePrefix is the comment marker all repository lint directives use.
// Like //go: directives, they must start at the beginning of the comment
// with no space after //.
const DirectivePrefix = "//pdede:"

// FileDirectives returns every //pdede: directive in file, parsed.
func (p *Pass) FileDirectives(file *ast.File) []Directive {
	if p.directives == nil {
		p.directives = make(map[*ast.File][]Directive)
	}
	if ds, ok := p.directives[file]; ok {
		return ds
	}
	var ds []Directive
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, DirectivePrefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, DirectivePrefix)
			name, args, _ := strings.Cut(rest, " ")
			ds = append(ds, Directive{Pos: c.Slash, Name: name, Args: strings.TrimSpace(args)})
		}
	}
	p.directives[file] = ds
	return ds
}

// FuncHasDirective reports whether fn (a declaration in file) carries the
// named //pdede: directive in its doc comment.
func (p *Pass) FuncHasDirective(file *ast.File, fn *ast.FuncDecl, name string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.HasPrefix(c.Text, DirectivePrefix+name) {
			return true
		}
	}
	return false
}

// NodeHasDirective reports whether the named directive appears in file on
// the line of node's position or the line immediately above it — the escape
// hatch form, e.g.
//
//	//pdede:nondet-ok each slice is sorted independently
//	for _, idx := range out {
func (p *Pass) NodeHasDirective(file *ast.File, node ast.Node, name string) bool {
	line := p.Fset.Position(node.Pos()).Line
	for _, d := range p.FileDirectives(file) {
		if d.Name != name {
			continue
		}
		dl := p.Fset.Position(d.Pos).Line
		if dl == line || dl == line-1 {
			return true
		}
	}
	return false
}

// SortDiagnostics orders diagnostics by file, line, column, analyzer.
func SortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// Run executes every analyzer over every package and returns the combined,
// sorted diagnostics. Load reads only a package's GoFiles, so test files
// are never analyzed: the contracts the suite enforces are about simulator
// code.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Syntax,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				report:    func(d Diagnostic) { out = append(out, d) },
			}
			if err := a.Run(pass); err != nil {
				return out, fmt.Errorf("%s: %s: %w", a.Name, pkg.Types.Path(), err)
			}
		}
	}
	SortDiagnostics(out)
	return out, nil
}

package lintkit

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	ImportPath string
	Dir        string
	GoFiles    []string // absolute paths
	Fset       *token.FileSet
	Syntax     []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info
}

// listPackage mirrors the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Export     string
	Imports    []string
	ImportMap  map[string]string
	Standard   bool
	DepOnly    bool
	Module     *struct {
		GoVersion string
	}
	Error *struct {
		Err string
	}
}

// Load type-checks the packages matching patterns, resolving them relative
// to dir (the module to analyze; "" means the current directory). It shells
// out to `go list -export -deps`, which compiles (or reuses from the build
// cache) export data for every dependency, then type-checks the matched
// packages from source against that export data — no network, no
// third-party loader.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,Name,GoFiles,Export,Imports,ImportMap,Standard,DepOnly,Module,Error",
		"--",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lintkit: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := make(map[string]string) // import path -> export data file
	var targets []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lintkit: decoding go list output: %w", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("lintkit: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		if !lp.DepOnly {
			p := lp
			targets = append(targets, &p)
		}
	}

	fset := token.NewFileSet()
	deps := newDepImporter(fset, exports)
	var pkgs []*Package
	for _, t := range targets {
		pkg, err := typecheck(fset, deps, t)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// typecheck parses and type-checks one target package from source.
func typecheck(fset *token.FileSet, deps *depImporter, lp *listPackage) (*Package, error) {
	var files []*ast.File
	var paths []string
	for _, name := range lp.GoFiles {
		path := filepath.Join(lp.Dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lintkit: %w", err)
		}
		files = append(files, f)
		paths = append(paths, path)
	}
	info := NewTypesInfo()
	conf := types.Config{
		Importer: &mapImporter{deps: deps, importMap: lp.ImportMap},
		Sizes:    types.SizesFor("gc", buildArch()),
	}
	if lp.Module != nil && lp.Module.GoVersion != "" {
		conf.GoVersion = "go" + lp.Module.GoVersion
	}
	tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lintkit: type-checking %s: %w", lp.ImportPath, err)
	}
	return &Package{
		ImportPath: lp.ImportPath,
		Dir:        lp.Dir,
		GoFiles:    paths,
		Fset:       fset,
		Syntax:     files,
		Types:      tpkg,
		TypesInfo:  info,
	}, nil
}

// NewTypesInfo allocates a types.Info with every map analyzers consult.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

func buildArch() string {
	if v := os.Getenv("GOARCH"); v != "" {
		return v
	}
	return runtime.GOARCH
}

// depImporter resolves canonical import paths to type information by
// reading the compiler's export data via the standard gc importer.
type depImporter struct {
	gc      types.ImporterFrom
	exports map[string]string
}

func newDepImporter(fset *token.FileSet, exports map[string]string) *depImporter {
	d := &depImporter{exports: exports}
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := d.exports[path]
		if !ok {
			return nil, fmt.Errorf("lintkit: no export data for %q", path)
		}
		return os.Open(file)
	}
	d.gc = importer.ForCompiler(fset, "gc", lookup).(types.ImporterFrom)
	return d
}

func (d *depImporter) importCanonical(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return d.gc.ImportFrom(path, "", 0)
}

// mapImporter applies one package's vendor/module ImportMap before
// delegating to the shared dependency importer.
type mapImporter struct {
	deps      *depImporter
	importMap map[string]string
}

func (m *mapImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := m.importMap[path]; ok {
		path = mapped
	}
	return m.deps.importCanonical(path)
}

// Package atomicwrite implements the pdede-lint analyzer guarding the
// checkpoint/report durability contract.
//
// The resilient suite runner's whole crash story (PR 1) assumes readers
// never observe a half-written checkpoint or report: every JSON document
// reaches disk via write-temp-then-rename (internal/atomicio). A direct
// os.Create or os.WriteFile in the experiment/report packages quietly
// reintroduces torn files — the run looks fine until the first crash mid
// flush, at which point -resume refuses a corrupt checkpoint and hours of
// suite progress are gone.
//
// In the persistence packages (internal/experiments, internal/serve), the
// module root (whose DumpSuiteJSON writes -dump-suite) and the cmd mains
// that write result files, the analyzer flags calls to:
//
//   - os.Create / os.WriteFile
//   - os.OpenFile with an O_CREATE flag
//
// Opening files for reading, and temp-file machinery (os.CreateTemp) are
// untouched — the atomic helper itself is built from them.
//
// Escape hatch: `//pdede:raw-write-ok <reason>` on the enclosing function's
// doc comment or the offending line, for writes that are genuinely
// streaming (e.g. progressive text logs where atomicity is meaningless).
package atomicwrite

import (
	"go/ast"
	"go/constant"
	"go/types"

	"repro/internal/analysis/lintkit"
)

// Scope is the import-path suffixes of packages persisting checkpoints and
// reports, including the module root and the cmd mains that write result
// files directly.
var Scope = []string{
	"repro",
	"internal/experiments",
	"internal/serve",
	"cmd/pdede-experiments",
	"cmd/pdede-serve",
	"cmd/pdede-sim",
	"cmd/pdede-trace",
}

// Analyzer is the atomic-write check.
var Analyzer = &lintkit.Analyzer{
	Name: "atomicwrite",
	Doc: "require checkpoint/report files to go through the write-temp-then-rename " +
		"helper (internal/atomicio) instead of raw os.Create/os.WriteFile",
	Run: run,
}

func run(pass *lintkit.Pass) error {
	if !pass.InScope(Scope) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "os" {
				return true
			}
			var what string
			switch obj.Name() {
			case "Create", "WriteFile":
				what = "os." + obj.Name()
			case "OpenFile":
				if len(call.Args) >= 2 && flagHasCreate(pass, call.Args[1]) {
					what = "os.OpenFile(..., O_CREATE, ...)"
				}
			}
			if what == "" {
				return true
			}
			if exempt(pass, file, call) {
				return true
			}
			pass.Reportf(call.Pos(), "%s writes a checkpoint/report file non-atomically: route it through atomicio.WriteFile so readers never see a torn document (or annotate //pdede:raw-write-ok with a reason)", what)
			return true
		})
	}
	return nil
}

// flagHasCreate reports whether the constant flag expression includes the
// os.O_CREATE bit. Non-constant flags are conservatively treated as
// creating.
func flagHasCreate(pass *lintkit.Pass, flag ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[flag]
	if !ok || tv.Value == nil {
		return true
	}
	v, exact := constant.Int64Val(constant.ToInt(tv.Value))
	if !exact {
		return true
	}
	creat := int64(64) // os.O_CREATE on every supported platform (syscall.O_CREAT)
	for _, imp := range pass.Pkg.Imports() {
		if imp.Path() != "os" {
			continue
		}
		if c, ok := imp.Scope().Lookup("O_CREATE").(*types.Const); ok {
			if cv, exact := constant.Int64Val(constant.ToInt(c.Val())); exact {
				creat = cv
			}
		}
	}
	return v&creat != 0
}

func exempt(pass *lintkit.Pass, file *ast.File, n ast.Node) bool {
	if pass.NodeHasDirective(file, n, "raw-write-ok") {
		return true
	}
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		if n.Pos() >= fn.Body.Pos() && n.End() <= fn.Body.End() {
			return pass.FuncHasDirective(file, fn, "raw-write-ok")
		}
	}
	return false
}

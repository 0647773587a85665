// Package determinism implements the pdede-lint analyzer that keeps
// simulation results bit-identical across runs.
//
// The simulator's core guarantee — same trace + same seed ⇒ same MPKI, same
// divergence reports, same goldens — dies through three Go-specific leaks:
// map iteration order, wall-clock reads, and the process-seeded global
// math/rand source. The differential oracle (internal/oracle) catches the
// resulting drift at runtime when it is lucky; this analyzer makes the
// whole class unrepresentable at lint time.
//
// Checks, in simulation-affecting packages (see SimScope/ReportScope):
//
//   - any use of time.Now / time.Since / time.Until;
//   - any call through math/rand's (or math/rand/v2's) global source —
//     seeded per-process, so two runs disagree; explicit *rand.Rand values
//     built from internal/rng seeds remain fine;
//   - `range` over a map whose body is order-sensitive: anything beyond
//     commutative accumulation (counters, +=, map inserts, delete) escapes
//     iteration order into results. The one blessed exception is the
//     collect-then-sort idiom (append keys, sort, iterate the slice).
//     Selecting a winner (max/min) inside a map range is the classic
//     simulator bug — ties break differently per run — and is flagged even
//     though it looks like accumulation.
//
// Escape hatch: `//pdede:nondet-ok <reason>` on the offending line or the
// line above, for code whose nondeterminism provably cannot reach results.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/lintkit"
)

// SimScope is the import-path suffixes of packages whose state feeds
// predictions, metrics, or reports. Wall-clock and global-rand bans apply
// here.
var SimScope = []string{
	"internal/btb",
	"internal/pdede",
	"internal/core",
	"internal/predictor",
	"internal/oracle",
	"internal/shotgun",
	"internal/multilevel",
	"internal/addr",
	"internal/isa",
}

// ReportScope extends SimScope for the map-iteration check: these packages
// render tables, JSON exports and keep-going reports whose bytes must be
// stable across runs. The cmd mains are included — they are where tables
// actually reach stdout and files.
var ReportScope = []string{
	"internal/metrics",
	"internal/experiments",
	"internal/serve",
	"cmd/pdede-experiments",
	"cmd/pdede-serve",
	"cmd/pdede-sim",
	"cmd/pdede-trace",
}

// Analyzer is the determinism check.
var Analyzer = &lintkit.Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock reads, global math/rand, and order-sensitive map iteration " +
		"in simulation and report packages, keeping replays bit-identical",
	Run: run,
}

func run(pass *lintkit.Pass) error {
	sim := pass.InScope(SimScope)
	report := sim || pass.InScope(ReportScope)
	if !report {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if sim {
					checkClockAndRand(pass, file, n)
				} else {
					checkGlobalRand(pass, file, n)
				}
			case *ast.RangeStmt:
				checkMapRange(pass, file, n)
			}
			return true
		})
	}
	return nil
}

// pkgOf resolves a selector's base to an imported package, or nil.
func pkgOf(pass *lintkit.Pass, sel *ast.SelectorExpr) *types.Package {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return nil
	}
	return pn.Imported()
}

// wallClockFuncs are the time package entry points that read the host
// clock. time.Duration arithmetic and formatting stay legal.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// randConstructors are the math/rand names that do NOT touch the global
// source: constructing an explicit, seeded generator is the deterministic
// pattern internal/rng builds on.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func checkClockAndRand(pass *lintkit.Pass, file *ast.File, sel *ast.SelectorExpr) {
	pkg := pkgOf(pass, sel)
	if pkg == nil {
		return
	}
	if pkg.Path() == "time" && wallClockFuncs[sel.Sel.Name] {
		if pass.NodeHasDirective(file, sel, "nondet-ok") {
			return
		}
		pass.Reportf(sel.Pos(), "wall-clock read time.%s in a simulation package: results must depend only on trace and seed", sel.Sel.Name)
		return
	}
	checkGlobalRandPkg(pass, file, sel, pkg)
}

func checkGlobalRand(pass *lintkit.Pass, file *ast.File, sel *ast.SelectorExpr) {
	pkg := pkgOf(pass, sel)
	if pkg == nil {
		return
	}
	checkGlobalRandPkg(pass, file, sel, pkg)
}

func checkGlobalRandPkg(pass *lintkit.Pass, file *ast.File, sel *ast.SelectorExpr, pkg *types.Package) {
	if pkg.Path() != "math/rand" && pkg.Path() != "math/rand/v2" {
		return
	}
	if _, isFunc := pass.TypesInfo.Uses[sel.Sel].(*types.Func); !isFunc {
		return // rand.Rand, rand.Source: types are fine
	}
	if randConstructors[sel.Sel.Name] {
		return
	}
	if pass.NodeHasDirective(file, sel, "nondet-ok") {
		return
	}
	pass.Reportf(sel.Pos(), "rand.%s draws from the process-seeded global source; use an explicit generator seeded from the run seed (internal/rng)", sel.Sel.Name)
}

// checkMapRange flags order-sensitive iteration over a map.
func checkMapRange(pass *lintkit.Pass, file *ast.File, rng *ast.RangeStmt) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	if pass.NodeHasDirective(file, rng, "nondet-ok") {
		return
	}
	if isSortedKeyCollection(pass, file, rng) {
		return
	}
	w := &bodyWalker{pass: pass, locals: map[types.Object]bool{}}
	w.noteLoopVar(rng.Key)
	w.noteLoopVar(rng.Value)
	if why := w.orderSensitive(rng.Body.List); why != "" {
		pass.Reportf(rng.Pos(), "nondeterministic map iteration: %s; sort the keys first or keep the body order-insensitive", why)
	}
}

// bodyWalker classifies a map-range body as order-insensitive or not.
type bodyWalker struct {
	pass   *lintkit.Pass
	locals map[types.Object]bool
}

func (w *bodyWalker) noteLoopVar(e ast.Expr) {
	if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
		if obj := w.pass.TypesInfo.Defs[id]; obj != nil {
			w.locals[obj] = true
		}
	}
}

// orderSensitive returns a reason string when any statement lets iteration
// order escape the loop, and "" when the body is pure accumulation.
func (w *bodyWalker) orderSensitive(stmts []ast.Stmt) string {
	for _, s := range stmts {
		if why := w.stmt(s); why != "" {
			return why
		}
	}
	return ""
}

func (w *bodyWalker) stmt(s ast.Stmt) string {
	switch s := s.(type) {
	case *ast.IncDecStmt:
		return ""
	case *ast.AssignStmt:
		return w.assign(s)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, n := range vs.Names {
						if obj := w.pass.TypesInfo.Defs[n]; obj != nil {
							w.locals[obj] = true
						}
					}
				}
			}
			return ""
		}
		return "declaration in body"
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" {
				if _, isBuiltin := w.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
					return ""
				}
			}
		}
		return "a call whose effects may depend on iteration order"
	case *ast.IfStmt:
		if s.Init != nil {
			if why := w.stmt(s.Init); why != "" {
				return why
			}
		}
		if why := w.orderSensitive(s.Body.List); why != "" {
			// An if selecting which key wins is the max/min-over-map bug.
			if isComparison(s.Cond) && why == reasonOuterAssign {
				return "selecting a winner by comparison breaks ties in iteration order"
			}
			return why
		}
		if s.Else != nil {
			return w.stmt(s.Else)
		}
		return ""
	case *ast.BlockStmt:
		return w.orderSensitive(s.List)
	case *ast.RangeStmt:
		// A nested range over a slice/array of the value is still local;
		// nested map ranges are checked independently by the inspector.
		w.noteLoopVar(s.Key)
		w.noteLoopVar(s.Value)
		return w.orderSensitive(s.Body.List)
	case *ast.ForStmt:
		if s.Init != nil {
			if why := w.stmt(s.Init); why != "" {
				return why
			}
		}
		return w.orderSensitive(s.Body.List)
	case *ast.SwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				if why := w.orderSensitive(cc.Body); why != "" {
					return why
				}
			}
		}
		return ""
	case *ast.BranchStmt:
		if s.Tok == token.CONTINUE && s.Label == nil {
			return ""
		}
		return "break/goto makes the processed subset depend on iteration order"
	case *ast.ReturnStmt:
		return "returning from inside the loop exposes whichever key came first"
	default:
		return "order-sensitive statement"
	}
}

const reasonOuterAssign = "plain assignment to a variable that outlives the loop keeps the last-iterated key"

func (w *bodyWalker) assign(s *ast.AssignStmt) string {
	switch s.Tok {
	case token.DEFINE:
		for _, l := range s.Lhs {
			w.noteLoopVar(l)
		}
		return ""
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
		token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		return ""
	case token.ASSIGN:
		for _, l := range s.Lhs {
			if !w.insensitiveLHS(l) {
				return reasonOuterAssign
			}
		}
		return ""
	default:
		return "order-sensitive assignment"
	}
}

// insensitiveLHS: writes into a map cell (keys are unique per iteration) or
// into a variable local to the loop body do not leak order.
func (w *bodyWalker) insensitiveLHS(l ast.Expr) bool {
	switch l := l.(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return true
		}
		return w.locals[w.pass.TypesInfo.ObjectOf(l)]
	case *ast.IndexExpr:
		t := w.pass.TypesInfo.TypeOf(l.X)
		if t == nil {
			return false
		}
		_, isMap := t.Underlying().(*types.Map)
		return isMap
	default:
		return false
	}
}

func isComparison(e ast.Expr) bool {
	if b, ok := e.(*ast.BinaryExpr); ok {
		switch b.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ:
			return true
		}
	}
	return false
}

// isSortedKeyCollection recognizes the blessed idiom
//
//	for k := range m { keys = append(keys, k) }
//	sort.Strings(keys)            // or slices.Sort, sort.Slice, ...
//
// by requiring the body to be a single self-append involving the key and a
// sort call on the same slice later in the enclosing block.
func isSortedKeyCollection(pass *lintkit.Pass, file *ast.File, rng *ast.RangeStmt) bool {
	if len(rng.Body.List) != 1 {
		return false
	}
	as, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 || (as.Tok != token.ASSIGN && as.Tok != token.DEFINE) {
		return false
	}
	dst, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" {
		return false
	}
	if _, isBuiltin := pass.TypesInfo.Uses[fn].(*types.Builtin); !isBuiltin {
		return false
	}
	first, ok := call.Args[0].(*ast.Ident)
	if !ok || pass.TypesInfo.ObjectOf(first) != pass.TypesInfo.ObjectOf(dst) {
		return false
	}
	dstObj := pass.TypesInfo.ObjectOf(dst)
	if dstObj == nil {
		return false
	}
	return sortedLaterInBlock(pass, file, rng, dstObj)
}

// sortedLaterInBlock scans the statements after rng in its innermost
// enclosing block for a sort.*/slices.* call taking the collected slice.
func sortedLaterInBlock(pass *lintkit.Pass, file *ast.File, rng *ast.RangeStmt, slice types.Object) bool {
	var found bool
	ast.Inspect(file, func(n ast.Node) bool {
		if found {
			return false
		}
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		idx := -1
		for i, s := range block.List {
			if s == ast.Stmt(rng) {
				idx = i
				break
			}
		}
		if idx < 0 {
			return true
		}
		for _, s := range block.List[idx+1:] {
			es, ok := s.(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				continue
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				continue
			}
			pkg := pkgOf(pass, sel)
			if pkg == nil || (pkg.Path() != "sort" && pkg.Path() != "slices") {
				continue
			}
			for _, a := range call.Args {
				if id, ok := a.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == slice {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// Package guardedby enforces lock discipline on annotated fields: a field
// declared with `//pdede:guarded-by(mu)` may only be read or written while
// the named sibling mutex is held on every control-flow path.
//
// The experiment harness (runner, checkpoint) shares per-run state between
// the driving goroutine and workers; a forgotten Lock around one access is
// a data race the race detector only catches when the schedule cooperates.
// This check proves the discipline statically: flowkit builds the
// function's CFG, a must-hold dataflow tracks which mutexes are locked on
// *all* paths reaching each statement (`x.mu.Lock()` generates the fact,
// `x.mu.Unlock()` kills it, intersection at joins), and every access to a
// guarded field is checked against the lock set.
//
// Conventions:
//
//   - `defer x.mu.Unlock()` does not kill the fact — the mutex stays held
//     until return, which is exactly Go's idiom.
//   - A function whose doc comment carries `//pdede:guarded-by(mu)`
//     declares the precondition "caller holds recv.mu": the fact is seeded
//     at entry (the flushLocked pattern).
//   - Accesses through a locally-allocated object (`c := &Checkpoint{...}`,
//     `new(T)`, or a composite literal) are exempt: no other goroutine can
//     reach storage that has not escaped the constructor yet.
//   - Function literals are skipped: a closure may run on another
//     goroutine, so its lock context is not the enclosing function's. The
//     closure body's own Lock/Unlock calls are still analyzed when the
//     closure is assigned to a named function — otherwise accesses inside
//     it are out of scope for this check.
//
// Escape: `//pdede:guardedby-ok <reason>` on the access line or the line
// above (e.g. single-goroutine setup phases).
package guardedby

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis/flowkit"
	"repro/internal/analysis/lintkit"
)

// Analyzer is the guardedby lint pass.
var Analyzer = &lintkit.Analyzer{
	Name: "guardedby",
	Doc:  "require fields annotated //pdede:guarded-by(mu) to be accessed only with the named mutex held on every control-flow path",
	Run:  run,
}

// scope: the concurrent experiment harness and the multi-tenant service.
var scope = []string{"internal/experiments", "internal/serve"}

func run(pass *lintkit.Pass) error {
	if !pass.InScope(scope) {
		return nil
	}
	guards := guardedFields(pass)
	if len(guards) == 0 {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, file, fd, guards)
		}
	}
	return nil
}

// guardedFields maps each annotated field to the name of its guarding
// mutex (the argument of //pdede:guarded-by(mu), a sibling field).
func guardedFields(pass *lintkit.Pass) map[*types.Var]string {
	out := make(map[*types.Var]string)
	for _, file := range pass.Files {
		f := file
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mu, ok := fieldGuard(pass, f, field)
				if !ok {
					continue
				}
				for _, name := range field.Names {
					if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						out[v] = mu
					}
				}
			}
			return true
		})
	}
	return out
}

// fieldGuard extracts the mutex name from a field's //pdede:guarded-by(mu)
// directive (doc comment, line comment, or the line above).
func fieldGuard(pass *lintkit.Pass, file *ast.File, field *ast.Field) (string, bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if mu, ok := parseGuard(c.Text); ok {
				return mu, true
			}
		}
	}
	line := pass.Fset.Position(field.Pos()).Line
	for _, d := range pass.FileDirectives(file) {
		dl := pass.Fset.Position(d.Pos).Line
		if dl != line && dl != line-1 {
			continue
		}
		if mu, ok := parseGuard(lintkit.DirectivePrefix + d.Name + " " + d.Args); ok {
			return mu, true
		}
	}
	return "", false
}

// parseGuard parses "//pdede:guarded-by(mu)".
func parseGuard(text string) (string, bool) {
	const prefix = lintkit.DirectivePrefix + "guarded-by("
	if !strings.HasPrefix(text, prefix) {
		return "", false
	}
	rest := strings.TrimPrefix(text, prefix)
	i := strings.IndexByte(rest, ')')
	if i <= 0 {
		return "", false
	}
	return rest[:i], true
}

func checkFunc(pass *lintkit.Pass, file *ast.File, fd *ast.FuncDecl, guards map[*types.Var]string) {
	info := pass.TypesInfo
	g := flowkit.New(fd.Body)

	// Entry precondition: //pdede:guarded-by(mu) on the function doc means
	// the caller holds recv.mu.
	var entry []string
	if fd.Doc != nil && fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		recvName := fd.Recv.List[0].Names[0].Name
		for _, c := range fd.Doc.List {
			if mu, ok := parseGuard(c.Text); ok {
				entry = append(entry, recvName+"."+mu)
			}
		}
	}

	held := flowkit.MustHold(g, entry, lockGenKill(info))
	local := locallyAllocated(fd, info)

	for _, blk := range g.Blocks {
		for _, s := range blk.Stmts {
			facts := held[s]
			walkStmtExprs(s, func(e ast.Expr) {
				sel, ok := e.(*ast.SelectorExpr)
				if !ok {
					return
				}
				f, ok := selectedField(info, sel)
				if !ok {
					return
				}
				mu, guarded := guards[f]
				if !guarded {
					return
				}
				baseName, key, ok := lockKey(sel.X, mu)
				if !ok {
					return
				}
				if local[baseName] {
					return // not escaped yet: constructor-private
				}
				if facts.Has(key) {
					return
				}
				if pass.NodeHasDirective(file, sel, "guardedby-ok") {
					return
				}
				pass.Reportf(sel.Pos(),
					"%s.%s is guarded by %s, which is not held on every path to this access",
					types.ExprString(sel.X), f.Name(), key)
			})
		}
	}
}

// walkStmtExprs visits the expressions evaluated by s itself — not the
// bodies of nested control statements (those live in their own CFG blocks)
// and not function literals (their lock context is not ours).
func walkStmtExprs(s ast.Stmt, visit func(ast.Expr)) {
	walkExpr := func(e ast.Expr) {
		if e == nil {
			return
		}
		ast.Inspect(e, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			if e, ok := n.(ast.Expr); ok {
				visit(e)
			}
			return true
		})
	}
	if cond, ok := flowkit.CondExprs(s); ok {
		for _, e := range cond {
			walkExpr(e)
		}
		return
	}
	if r, ok := s.(*ast.RangeStmt); ok {
		walkExpr(r.X)
		return
	}
	// A simple statement: walk it wholesale, skipping function literals.
	ast.Inspect(s, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if e, ok := n.(ast.Expr); ok {
			visit(e)
		}
		return true
	})
}

// selectedField resolves sel to the struct field it selects, if any.
func selectedField(info *types.Info, sel *ast.SelectorExpr) (*types.Var, bool) {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil, false
	}
	v, ok := s.Obj().(*types.Var)
	return v, ok
}

// lockKey canonicalises the guarded access's base expression and appends
// the mutex name: access `c.done[k]` guarded by mu → base "c", key "c.mu".
// Only simple ident bases are supported; anything else is skipped (unknown
// base ⇒ no sound fact to check against).
func lockKey(base ast.Expr, mu string) (baseName, key string, ok bool) {
	base = ast.Unparen(base)
	if star, ok := base.(*ast.StarExpr); ok {
		base = ast.Unparen(star.X)
	}
	id, ok := base.(*ast.Ident)
	if !ok {
		return "", "", false
	}
	return id.Name, id.Name + "." + mu, true
}

// lockGenKill recognises sync lock operations: `x.mu.Lock()` ⇒ gen "x.mu",
// `x.mu.Unlock()` ⇒ kill. RLock/RUnlock count too — readers of guarded
// fields are safe under the read lock, and the analysis does not
// distinguish read from write accesses. Deferred unlocks are DeferStmt,
// not ExprStmt, so they never kill: the lock stays held to return.
func lockGenKill(info *types.Info) flowkit.GenKill {
	return func(s ast.Stmt) (gen, kill []string) {
		es, ok := s.(*ast.ExprStmt)
		if !ok {
			return nil, nil
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			return nil, nil
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return nil, nil
		}
		if !isMutexType(info, sel.X) {
			return nil, nil
		}
		key := types.ExprString(sel.X)
		switch sel.Sel.Name {
		case "Lock", "RLock":
			return []string{key}, nil
		case "Unlock", "RUnlock":
			return nil, []string{key}
		}
		return nil, nil
	}
}

// isMutexType reports whether e's type is (or points to) a sync.Mutex or
// sync.RWMutex — or, in fixtures, any named type ending in "Mutex".
func isMutexType(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return strings.HasSuffix(named.Obj().Name(), "Mutex")
}

// locallyAllocated finds locals bound to freshly-allocated objects (`c :=
// &T{...}`, `c := new(T)`) whose guarded fields are exempt: storage that
// has not escaped the constructor cannot be raced. Keyed by name because
// lockKey works on rendered names; shadowing a fresh-alloc name with an
// escaped value inside one function would be pathological style the
// harness does not use.
func locallyAllocated(fd *ast.FuncDecl, _ *types.Info) map[string]bool {
	names := make(map[string]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i := range as.Lhs {
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			if isFreshAlloc(as.Rhs[i]) {
				names[id.Name] = true
			}
		}
		return true
	})
	return names
}

func isFreshAlloc(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		_, ok := ast.Unparen(e.X).(*ast.CompositeLit)
		return ok
	case *ast.CallExpr:
		id, ok := ast.Unparen(e.Fun).(*ast.Ident)
		return ok && id.Name == "new"
	}
	return false
}

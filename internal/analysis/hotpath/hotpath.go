// Package hotpath implements the pdede-lint analyzer for `//pdede:hot`
// functions.
//
// The PR 3 performance work rebuilt the per-branch simulation path —
// Lookup/probe/Update with their one-shot probe memos and packed
// sentinel-tag scan arrays — to run allocation-free: the whole 102-app
// suite lives inside these few functions. A single innocent-looking edit
// (a defer, a closure, an append, passing a concrete value to an
// interface parameter) silently reintroduces per-branch allocations or
// dynamic dispatch and costs double-digit percentages of records/sec,
// which the benchmark (layerbench) only notices after the fact.
//
// Marking a function with the `//pdede:hot` directive in its doc comment
// makes those edits compile-time errors of the lint suite. Inside a hot
// function the analyzer forbids:
//
//   - defer statements (forced frame bookkeeping on every call);
//   - function literals (closure allocation, inhibits inlining);
//   - append (growth ⇒ allocation; hot structures are pre-sized);
//   - conversions of concrete values to interface types, explicit or
//     implicit (boxing allocates for non-pointer values and adds dynamic
//     dispatch). Calling a method *through* an existing interface value
//     (e.g. the replacement-policy vtable) stays legal: it does not box.
//
// The contract is interprocedural: a hot function's budget is spent by
// everything it calls, so the same rules apply to every in-package function
// reachable from a `//pdede:hot` root through flowkit's class-hierarchy
// call graph — static calls descend into their callee's body, interface
// dispatch descends into every in-package concrete method that may be the
// target. A helper that only a cold path reaches is untouched; the moment a
// hot root can reach it, its defers and appends are hot-path defers and
// appends.
//
// Escapes: `//pdede:hotpath-ok <reason>` on a function's doc comment takes
// the whole function (and everything only it reaches) out of the closure —
// for deliberately cold carve-outs like corruption error construction. On a
// call line it prunes that one edge; on an offending line inside a reached
// function it suppresses that single finding.
//
// The directive is a contract, not a heuristic: annotate the functions the
// profiler shows hot, and the analyzer keeps them — and their callees —
// that way.
package hotpath

import (
	"go/ast"
	"go/types"
	"sort"

	"repro/internal/analysis/flowkit"
	"repro/internal/analysis/lintkit"
)

// Directive marks a function as hot-path in its doc comment.
const Directive = "hot"

// EscapeDirective prunes a function, call edge, or single finding from the
// hot closure.
const EscapeDirective = "hotpath-ok"

// Analyzer is the hot-path check.
var Analyzer = &lintkit.Analyzer{
	Name: "hotpath",
	Doc: "forbid defer, closures, append and interface boxing in functions " +
		"marked //pdede:hot and everything they reach through the in-package call graph",
	Run: run,
}

func run(pass *lintkit.Pass) error {
	cg := flowkit.BuildCallGraph(pass.Files, pass.Pkg, pass.TypesInfo)

	// Roots: every declared function carrying //pdede:hot.
	var roots []*types.Func
	for fn, fd := range cg.Decls {
		if pass.FuncHasDirective(cg.File(fn), fd, Directive) {
			roots = append(roots, fn)
		}
	}
	if len(roots) == 0 {
		return nil
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].FullName() < roots[j].FullName() })

	opts := flowkit.ReachOpts{
		SkipFunc: func(fn *types.Func) bool {
			return pass.FuncHasDirective(cg.File(fn), cg.Decls[fn], EscapeDirective)
		},
		SkipCall: func(from *types.Func, c flowkit.Call) bool {
			return pass.NodeHasDirective(cg.File(from), c.Expr, EscapeDirective)
		},
	}

	// Walk per root in sorted order so every reached function is checked
	// exactly once and attributed deterministically to the first root that
	// reaches it.
	checked := make(map[*types.Func]bool)
	for _, root := range roots {
		reach := cg.ReachableWith([]*types.Func{root}, opts)
		var fns []*types.Func
		for fn := range reach {
			if !checked[fn] {
				checked[fn] = true
				fns = append(fns, fn)
			}
		}
		sort.Slice(fns, func(i, j int) bool { return fns[i].FullName() < fns[j].FullName() })
		for _, fn := range fns {
			c := &checker{
				pass: pass,
				file: cg.File(fn),
				name: fn.Name(),
			}
			if fn != root {
				c.via = root.Name()
			}
			c.check(cg.Decls[fn])
		}
	}
	return nil
}

// checker applies the hot-path rules to one function body. For a root (via
// == "") diagnostics keep the original intraprocedural wording; for a
// reached callee they name the hot root whose closure pulled it in.
type checker struct {
	pass *lintkit.Pass
	file *ast.File
	name string
	via  string
}

// reportf emits one finding unless the offending line carries the escape
// directive. where/what format: "defer", "frame bookkeeping on the
// per-branch path".
func (c *checker) reportf(node ast.Node, format string, args ...any) {
	if c.pass.NodeHasDirective(c.file, node, EscapeDirective) {
		return
	}
	c.pass.Reportf(node.Pos(), format, args...)
}

// ctx renders the function context for diagnostics: the original "//pdede:hot
// function F" for roots, "function F (on the //pdede:hot path via R)" for
// reached callees.
func (c *checker) ctx() string {
	if c.via == "" {
		return "//pdede:hot function " + c.name
	}
	return "function " + c.name + " (on the //pdede:hot path via " + c.via + ")"
}

func (c *checker) check(fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			c.reportf(n, "defer in %s: frame bookkeeping on the per-branch path", c.ctx())
		case *ast.GoStmt:
			c.reportf(n, "go statement in %s: goroutine launch on the per-branch path", c.ctx())
		case *ast.FuncLit:
			c.reportf(n, "closure in %s: allocates and inhibits inlining", c.ctx())
			return false // its body is not part of the hot frame
		case *ast.CallExpr:
			c.checkCall(n)
		case *ast.AssignStmt:
			c.checkAssign(n)
		case *ast.ReturnStmt:
			c.checkReturn(fn, n)
		case *ast.ValueSpec:
			c.checkValueSpec(n)
		}
		return true
	})
}

func (c *checker) checkCall(call *ast.CallExpr) {
	pass := c.pass
	// Builtin append.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			if id.Name == "append" {
				c.reportf(call, "append in %s: growth allocates; pre-size the structure", c.ctx())
			}
			return
		}
	}
	// Explicit conversion to an interface type: T(x) with T an interface.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if isInterface(tv.Type) && len(call.Args) == 1 && boxes(pass, call.Args[0]) {
			c.reportf(call, "conversion to interface %s in %s boxes its operand", types.TypeString(tv.Type, nil), c.ctx())
		}
		return
	}
	// Implicit conversions at call boundaries: concrete argument, interface
	// parameter.
	sigT := pass.TypesInfo.TypeOf(call.Fun)
	if sigT == nil {
		return
	}
	sig, ok := sigT.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				pt = params.At(params.Len() - 1).Type() // []T passed whole: no boxing
				if i == params.Len()-1 {
					pt = nil // the slice itself
				}
			} else if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt != nil && isInterface(pt) && boxes(pass, arg) {
			c.reportf(arg, "argument %d of call in %s is boxed into interface %s", i, c.ctx(), types.TypeString(pt, nil))
		}
	}
}

func (c *checker) checkAssign(as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, l := range as.Lhs {
		lt := c.pass.TypesInfo.TypeOf(l)
		if lt != nil && isInterface(lt) && boxes(c.pass, as.Rhs[i]) {
			c.reportf(as.Rhs[i], "assignment boxes a concrete value into interface %s in %s", types.TypeString(lt, nil), c.ctx())
		}
	}
}

func (c *checker) checkReturn(fn *ast.FuncDecl, ret *ast.ReturnStmt) {
	if fn.Type.Results == nil {
		return
	}
	var resultTypes []types.Type
	for _, f := range fn.Type.Results.List {
		t := c.pass.TypesInfo.TypeOf(f.Type)
		n := len(f.Names)
		if n == 0 {
			n = 1
		}
		for j := 0; j < n; j++ {
			resultTypes = append(resultTypes, t)
		}
	}
	if len(ret.Results) != len(resultTypes) {
		return
	}
	for i, r := range ret.Results {
		if resultTypes[i] != nil && isInterface(resultTypes[i]) && boxes(c.pass, r) {
			c.reportf(r, "return boxes a concrete value into interface %s in %s", types.TypeString(resultTypes[i], nil), c.ctx())
		}
	}
}

func (c *checker) checkValueSpec(vs *ast.ValueSpec) {
	if vs.Type == nil {
		return
	}
	t := c.pass.TypesInfo.TypeOf(vs.Type)
	if t == nil || !isInterface(t) {
		return
	}
	for _, v := range vs.Values {
		if boxes(c.pass, v) {
			c.reportf(v, "var declaration boxes a concrete value into interface %s in %s", types.TypeString(t, nil), c.ctx())
		}
	}
}

func isInterface(t types.Type) bool {
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// boxes reports whether expr has a concrete (non-interface, non-nil) type,
// i.e. using it as an interface value requires a conversion.
func boxes(pass *lintkit.Pass, expr ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	if tv.IsNil() {
		return false
	}
	b, isBasic := tv.Type.Underlying().(*types.Basic)
	if isBasic && b.Kind() == types.UntypedNil {
		return false
	}
	return !isInterface(tv.Type)
}

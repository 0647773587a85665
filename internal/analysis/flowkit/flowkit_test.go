package flowkit

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// check parses and type-checks src (one file, package p) and returns the
// pieces the toolkit consumes.
func check(t *testing.T, src string) (*ast.File, *types.Package, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importer.Default()}
	pkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return f, pkg, info
}

func fnDecl(t *testing.T, f *ast.File, name string) *ast.FuncDecl {
	t.Helper()
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd
		}
	}
	t.Fatalf("no function %s", name)
	return nil
}

const lockSrc = `package p

type mutex struct{ held bool }

func (m *mutex) Lock()   {}
func (m *mutex) Unlock() {}

type box struct {
	mu mutex
	n  int
}

func ok(b *box) int {
	b.mu.Lock()
	v := b.n
	b.mu.Unlock()
	return v
}

func branchy(b *box, c bool) int {
	if c {
		b.mu.Lock()
	}
	v := b.n
	if c {
		b.mu.Unlock()
	}
	return v
}

func looped(b *box) int {
	t := 0
	for i := 0; i < 3; i++ {
		b.mu.Lock()
		t += b.n
		b.mu.Unlock()
	}
	return t
}

func deferred(b *box) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}
`

// lockGenKill recognises b.mu.Lock()/Unlock() calls, keyed by the rendered
// receiver chain.
func lockGenKill(info *types.Info) GenKill {
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
		key := types.ExprString(sel.X)
		switch sel.Sel.Name {
		case "Lock":
			return []string{key}, nil
		case "Unlock":
			return nil, []string{key}
		}
		return nil, nil
	}
}

// heldBefore finds the statement containing pos's reads and returns its
// in-facts.
func stmtFacts(t *testing.T, res map[ast.Stmt]Facts, g *Graph, match func(ast.Stmt) bool) Facts {
	t.Helper()
	for _, blk := range g.Blocks {
		for _, s := range blk.Stmts {
			if match(s) {
				return res[s]
			}
		}
	}
	t.Fatal("statement not found in CFG")
	return nil
}

func isAssignTo(name string) func(ast.Stmt) bool {
	return func(s ast.Stmt) bool {
		as, ok := s.(*ast.AssignStmt)
		if !ok {
			return false
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		return ok && id.Name == name
	}
}

func TestMustHoldStraightLine(t *testing.T) {
	f, _, info := check(t, lockSrc)
	fd := fnDecl(t, f, "ok")
	g := New(fd.Body)
	res := MustHold(g, nil, lockGenKill(info))
	facts := stmtFacts(t, res, g, isAssignTo("v"))
	if !facts.Has("b.mu") {
		t.Errorf("lock not held at read in ok: %v", facts)
	}
}

func TestMustHoldBranchIntersection(t *testing.T) {
	f, _, info := check(t, lockSrc)
	fd := fnDecl(t, f, "branchy")
	g := New(fd.Body)
	res := MustHold(g, nil, lockGenKill(info))
	facts := stmtFacts(t, res, g, isAssignTo("v"))
	if facts == nil || facts.Has("b.mu") {
		t.Errorf("conditional lock must not count as held: %v", facts)
	}
}

func TestMustHoldLoopBody(t *testing.T) {
	f, _, info := check(t, lockSrc)
	fd := fnDecl(t, f, "looped")
	g := New(fd.Body)
	res := MustHold(g, nil, lockGenKill(info))
	facts := stmtFacts(t, res, g, func(s ast.Stmt) bool {
		as, ok := s.(*ast.AssignStmt)
		return ok && as.Tok == token.ADD_ASSIGN
	})
	if !facts.Has("b.mu") {
		t.Errorf("lock not held inside loop body: %v", facts)
	}
	// The lock must NOT be considered held at the loop's exit statement.
	ret := stmtFacts(t, res, g, func(s ast.Stmt) bool {
		_, ok := s.(*ast.ReturnStmt)
		return ok
	})
	if ret == nil || ret.Has("b.mu") {
		t.Errorf("lock leaked out of loop: %v", ret)
	}
}

func TestMustHoldDeferIgnored(t *testing.T) {
	f, _, info := check(t, lockSrc)
	fd := fnDecl(t, f, "deferred")
	g := New(fd.Body)
	res := MustHold(g, nil, lockGenKill(info))
	// defer b.mu.Unlock() is a DeferStmt, not an ExprStmt, so the kill does
	// not apply: the lock stays held through the return.
	ret := stmtFacts(t, res, g, func(s ast.Stmt) bool {
		_, ok := s.(*ast.ReturnStmt)
		return ok
	})
	if !ret.Has("b.mu") {
		t.Errorf("defer Unlock must not kill the lock before return: %v", ret)
	}
}

func TestMustHoldEntryPrecondition(t *testing.T) {
	f, _, info := check(t, lockSrc)
	fd := fnDecl(t, f, "branchy")
	g := New(fd.Body)
	res := MustHold(g, []string{"b.mu"}, lockGenKill(info))
	facts := stmtFacts(t, res, g, isAssignTo("v"))
	if !facts.Has("b.mu") {
		t.Errorf("entry precondition lost: %v", facts)
	}
}

func TestCFGCoversConstructs(t *testing.T) {
	src := `package p

func weird(xs []int, m map[string]int, ch chan int) int {
	total := 0
outer:
	for i, x := range xs {
		switch {
		case x == 0:
			continue outer
		case x < 0:
			break outer
		default:
			total += x
		}
		if i > 10 {
			goto done
		}
		select {
		case v := <-ch:
			total += v
		default:
		}
	}
	for k := range m {
		total += m[k]
	}
done:
	return total
}
`
	f, _, _ := check(t, src)
	fd := fnDecl(t, f, "weird")
	g := New(fd.Body)
	if g.Entry == nil || g.Exit == nil || len(g.Blocks) < 8 {
		t.Fatalf("suspicious graph: %d blocks", len(g.Blocks))
	}
	// Every return statement's block must reach the exit.
	foundReturn := false
	for _, blk := range g.Blocks {
		for _, s := range blk.Stmts {
			if _, ok := s.(*ast.ReturnStmt); ok {
				foundReturn = true
				if len(blk.Succs) == 0 || blk.Succs[len(blk.Succs)-1] != g.Exit {
					t.Error("return block does not lead to exit")
				}
			}
		}
	}
	if !foundReturn {
		t.Error("return statement lost from CFG")
	}
}

// Package flowkit is a small intraprocedural dataflow toolkit built only on
// go/ast and go/types, the flow-sensitive layer beneath the guardedby
// analyzer. It provides:
//
//   - a control-flow graph builder over function bodies (New), covering the
//     structured statements the simulator uses: if/for/range/switch/type
//     switch/select, labeled break/continue/goto, and early returns;
//   - a must-hold forward dataflow over the CFG (MustHold) — the lock-set
//     engine behind guardedby, with intersection at joins so a fact only
//     survives if it holds on *every* path.
//
// Everything is per-package by design: lintkit.Load hands an analyzer one
// package's syntax plus export data for its dependencies, so no analysis
// here ever needs a dependency's function bodies.
package flowkit

import (
	"go/ast"
	"go/token"
)

// Block is one basic block: a maximal straight-line statement sequence.
// Control constructs do not appear in Stmts themselves; their init
// statements and their bodies' statements are distributed into blocks, so a
// client sees every executable simple statement exactly once.
type Block struct {
	// Index is the block's position in Graph.Blocks (stable, deterministic).
	Index int
	// Stmts are the simple statements executed in order within the block.
	Stmts []ast.Stmt
	// Succs are the control-flow successors.
	Succs []*Block
	// Preds are the control-flow predecessors (inverse of Succs).
	Preds []*Block
}

// Graph is the control-flow graph of one function body.
type Graph struct {
	// Blocks lists every block in creation order; Blocks[0] is the entry.
	Blocks []*Block
	// Entry is the block control enters first.
	Entry *Block
	// Exit is the single synthetic exit block: returns and falling off the
	// end both lead here. It holds no statements.
	Exit *Block
}

// New builds the CFG of body. A nil body (declaration without
// implementation) yields a graph whose entry falls straight to exit.
func New(body *ast.BlockStmt) *Graph {
	b := &builder{g: &Graph{}, labels: map[string]*gotoTarget{}}
	entry := b.newBlock()
	b.g.Entry = entry
	exit := b.newBlock()
	b.g.Exit = exit
	b.cur = entry
	if body != nil {
		b.stmtList(body.List)
	}
	b.jump(exit)
	b.resolveGotos()
	b.renumber()
	for _, blk := range b.g.Blocks {
		for _, s := range blk.Succs {
			s.Preds = append(s.Preds, blk)
		}
	}
	return b.g
}

// loopCtx tracks where break/continue go for an enclosing loop, switch or
// select (continueTo is nil for switches).
type loopCtx struct {
	label      string
	breakTo    *Block
	continueTo *Block
}

// gotoTarget is a label's block, created lazily so forward gotos resolve.
type gotoTarget struct {
	block *Block
}

type builder struct {
	g     *Graph
	cur   *Block // current block; nil after a terminating statement
	loops []loopCtx
	// pendingLabel carries the label of a LabeledStmt to the loop or switch
	// it labels (LabeledStmt recurses into stmt, which consumes it).
	pendingLabel string
	labels       map[string]*gotoTarget
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// jump adds an edge from the current block to dst and leaves the current
// block unset (a following statement starts a fresh, unreachable block).
func (b *builder) jump(dst *Block) {
	if b.cur != nil {
		b.cur.Succs = append(b.cur.Succs, dst)
	}
	b.cur = nil
}

// edge adds an edge from src to dst.
func (b *builder) edge(src, dst *Block) {
	src.Succs = append(src.Succs, dst)
}

// startBlock makes blk current, creating a fresh block for unreachable code
// if control already terminated.
func (b *builder) startBlock(blk *Block) { b.cur = blk }

// ensure returns the current block, materialising an unreachable one if a
// terminator just ran (so statements after `return` still get analyzed).
func (b *builder) ensure() *Block {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	return b.cur
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// labelTarget returns (creating if needed) the goto target block for name.
func (b *builder) labelTarget(name string) *Block {
	t, ok := b.labels[name]
	if !ok {
		t = &gotoTarget{block: b.newBlock()}
		b.labels[name] = t
	}
	return t.block
}

func (b *builder) findLoop(label string, wantContinue bool) *loopCtx {
	for i := len(b.loops) - 1; i >= 0; i-- {
		lc := &b.loops[i]
		if wantContinue && lc.continueTo == nil {
			continue
		}
		if label == "" || lc.label == label {
			return lc
		}
	}
	return nil
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		// The condition is evaluated in the current block; record the
		// IfStmt itself so expression-level facts in Cond are visible.
		cond := b.ensure()
		cond.Stmts = append(cond.Stmts, condMarker(s))
		thenBlk := b.newBlock()
		join := b.newBlock()
		b.edge(cond, thenBlk)
		b.startBlock(thenBlk)
		b.stmt(s.Body)
		b.jump(join)
		if s.Else != nil {
			elseBlk := b.newBlock()
			b.edge(cond, elseBlk)
			b.startBlock(elseBlk)
			b.stmt(s.Else)
			b.jump(join)
		} else {
			b.edge(cond, join)
		}
		b.startBlock(join)

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock()
		b.jump(head)
		body := b.newBlock()
		post := b.newBlock()
		after := b.newBlock()
		b.edge(head, body)
		if s.Cond != nil {
			b.edge(head, after) // condition may fail immediately
		}
		b.loops = append(b.loops, loopCtx{label: b.pendingLabel, breakTo: after, continueTo: post})
		b.pendingLabel = ""
		b.startBlock(body)
		b.stmt(s.Body)
		b.jump(post)
		b.startBlock(post)
		if s.Post != nil {
			b.stmt(s.Post)
		}
		b.jump(head)
		b.loops = b.loops[:len(b.loops)-1]
		b.startBlock(after)

	case *ast.RangeStmt:
		head := b.newBlock()
		b.jump(head)
		body := b.newBlock()
		after := b.newBlock()
		b.edge(head, body)
		b.edge(head, after) // empty collection
		// The per-iteration key/value assignment happens at the head.
		head.Stmts = append(head.Stmts, s)
		b.loops = append(b.loops, loopCtx{label: b.pendingLabel, breakTo: after, continueTo: head})
		b.pendingLabel = ""
		b.startBlock(body)
		b.stmt(s.Body)
		b.jump(head)
		b.loops = b.loops[:len(b.loops)-1]
		b.startBlock(after)

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.ensure()
		head.Stmts = append(head.Stmts, condMarker(s))
		b.switchBody(head, s.Body, hasDefaultClause(s.Body))

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.ensure()
		head.Stmts = append(head.Stmts, condMarker(s))
		b.switchBody(head, s.Body, hasDefaultClause(s.Body))

	case *ast.SelectStmt:
		head := b.ensure()
		b.switchBody(head, s.Body, hasDefaultClause(s.Body))

	case *ast.LabeledStmt:
		target := b.labelTarget(s.Label.Name)
		b.jump(target)
		b.startBlock(target)
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			label := ""
			if s.Label != nil {
				label = s.Label.Name
			}
			if lc := b.findLoop(label, false); lc != nil {
				b.jump(lc.breakTo)
			} else {
				b.cur = nil
			}
		case token.CONTINUE:
			label := ""
			if s.Label != nil {
				label = s.Label.Name
			}
			if lc := b.findLoop(label, true); lc != nil {
				b.jump(lc.continueTo)
			} else {
				b.cur = nil
			}
		case token.GOTO:
			if s.Label != nil {
				b.jump(b.labelTarget(s.Label.Name))
			} else {
				b.cur = nil
			}
		case token.FALLTHROUGH:
			// Handled structurally in switchBody via fallthrough edges;
			// here we just terminate the block (switchBody wired the edge).
			b.cur = nil
		}

	case *ast.ReturnStmt:
		blk := b.ensure()
		blk.Stmts = append(blk.Stmts, s)
		b.jump(b.g.Exit)

	default:
		// Simple statements: assignments, expressions, declarations, defer,
		// go, send, inc/dec, empty.
		blk := b.ensure()
		blk.Stmts = append(blk.Stmts, s)
	}
}

// switchBody wires the clauses of a switch/type-switch/select: each clause
// body is a successor of head; clause ends jump to the join; fallthrough in
// clause i adds an edge to clause i+1's body.
func (b *builder) switchBody(head *Block, body *ast.BlockStmt, hasDefault bool) {
	join := b.newBlock()
	sw := loopCtx{label: b.pendingLabel, breakTo: join}
	b.pendingLabel = ""
	b.loops = append(b.loops, sw)
	clauseBlocks := make([]*Block, len(body.List))
	for i := range body.List {
		clauseBlocks[i] = b.newBlock()
		b.edge(head, clauseBlocks[i])
	}
	if !hasDefault {
		b.edge(head, join) // no clause may match
	}
	for i, cl := range body.List {
		b.startBlock(clauseBlocks[i])
		var stmts []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			stmts = cl.Body
		case *ast.CommClause:
			if cl.Comm != nil {
				b.stmt(cl.Comm)
			}
			stmts = cl.Body
		}
		fell := false
		for _, st := range stmts {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				if i+1 < len(clauseBlocks) {
					b.jump(clauseBlocks[i+1])
					fell = true
				}
				break
			}
			b.stmt(st)
		}
		if !fell {
			b.jump(join)
		}
	}
	b.loops = b.loops[:len(b.loops)-1]
	b.startBlock(join)
}

func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, cl := range body.List {
		switch cl := cl.(type) {
		case *ast.CaseClause:
			if cl.List == nil {
				return true
			}
		case *ast.CommClause:
			if cl.Comm == nil {
				return true
			}
		}
	}
	return false
}

// resolveGotos is a no-op today: label targets are materialised as blocks at
// first reference, so both forward and backward gotos already point at the
// right block.
func (b *builder) resolveGotos() {}

// renumber reassigns contiguous indices after block creation (indices are
// assigned at creation and stay contiguous, but keep this as the single
// place that guarantees the invariant).
func (b *builder) renumber() {
	for i, blk := range b.g.Blocks {
		blk.Index = i
	}
}

// condStmt wraps a control statement whose condition/tag expression is
// evaluated in the enclosing block. Clients that walk Block.Stmts see the
// wrapper and can inspect only the condition expression, not the bodies
// (whose statements live in their own blocks).
type condStmt struct {
	ast.Stmt
}

// condMarker wraps s for inclusion in a block's statement list.
func condMarker(s ast.Stmt) ast.Stmt { return condStmt{s} }

// CondExprs returns the expressions a wrapped control statement evaluates in
// its block (the if condition or switch tag), and reports whether s is such
// a wrapper. For plain statements it returns (nil, false).
func CondExprs(s ast.Stmt) ([]ast.Expr, bool) {
	c, ok := s.(condStmt)
	if !ok {
		return nil, false
	}
	switch s := c.Stmt.(type) {
	case *ast.IfStmt:
		return []ast.Expr{s.Cond}, true
	case *ast.SwitchStmt:
		if s.Tag != nil {
			return []ast.Expr{s.Tag}, true
		}
		return nil, true
	case *ast.TypeSwitchStmt:
		return nil, true
	}
	return nil, true
}

package framework

// cfg.go builds an intraprocedural control-flow graph over go/ast statement
// lists. The interval engine (interval.go, which modbound runs) needs to know
// what *may* have executed before a program point: a conditional subtract
// in one branch of an if bounds a value only on that branch, and a loop back
// edge carries the values of one iteration into the next. The CFG plus the
// iterative solver in dataflow.go turns those questions into fixpoint facts.
//
// Granularity: a Block holds whole statements (and the condition/tag
// expressions of the control statements that end a block) in execution
// order. Function-literal bodies are *not* part of the enclosing function's
// graph — they execute whenever the closure is called, not where it is
// written — so analyzers walking block nodes should use InspectShallow.
//
// A DeferStmt appears as a node at its registration point. Calls to the
// builtin panic terminate their path (no edge to Exit).

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Block is one basic block: straight-line nodes with a single entry at the
// top, branching only at the end (via Succs).
type Block struct {
	Index int
	Kind  string // diagnostic label: "entry", "if.then", "for.head", ...
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block

	// Branch is the boolean condition this block ends on, when the block's
	// out-edges are condition-directed: the condition of an if statement or
	// of a for statement with a Cond clause. TrueSucc/FalseSucc name the
	// successor taken when Branch evaluates true/false. All three are nil
	// for blocks whose successors are not condition-directed (switch
	// headers, range heads, joins). Flow analyses that understand the
	// condition (the interval engine's FlowSpec.EdgeTransfer) use these to
	// refine the fact flowing along each edge.
	Branch    ast.Expr
	TrueSucc  *Block
	FalseSucc *Block
}

// String renders a compact description for tests and debugging.
func (b *Block) String() string {
	succs := make([]string, len(b.Succs))
	for i, s := range b.Succs {
		succs[i] = fmt.Sprintf("%d", s.Index)
	}
	return fmt.Sprintf("b%d(%s)->[%s]", b.Index, b.Kind, strings.Join(succs, " "))
}

// CFG is the control-flow graph of one function body. Entry and Exit are
// synthetic empty blocks; every return statement's block has an edge to
// Exit, as does the block that falls off the end of the body (when
// reachable).
type CFG struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
}

// NewCFG builds the control-flow graph of a function body.
func NewCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}, labels: map[string]*Block{}}
	b.cfg.Entry = b.newBlock("entry")
	b.cfg.Exit = b.newBlock("exit")
	b.cur = b.newBlock("body")
	addEdge(b.cfg.Entry, b.cur)
	b.stmtList(body.List)
	if b.cur != nil {
		addEdge(b.cur, b.cfg.Exit)
	}
	return b.cfg
}

type loopCtx struct {
	label   string
	breakTo *Block
	contTo  *Block // nil for switch/select contexts
}

type cfgBuilder struct {
	cfg    *CFG
	cur    *Block // nil while flow is dead (after return/branch/panic)
	loops  []loopCtx
	labels map[string]*Block // label name -> target block (created on demand for goto)

	// pendingLabel is set by a LabeledStmt so the loop/switch it labels
	// registers its break/continue targets under that name.
	pendingLabel string
}

func (b *cfgBuilder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.cfg.Blocks), Kind: kind}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func addEdge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// add appends a node to the current block, resurrecting flow into a fresh
// unreachable block when the previous statement terminated the path (dead
// code keeps Bottom facts and is skipped by the analyzers).
func (b *cfgBuilder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock("dead")
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// edgeFromCur links the current block to target when flow is alive.
func (b *cfgBuilder) edgeFromCur(target *Block) {
	if b.cur != nil {
		addEdge(b.cur, target)
	}
}

func (b *cfgBuilder) stmtList(stmts []ast.Stmt) {
	for _, s := range stmts {
		b.stmt(s)
	}
}

// takeLabel consumes the pending label for the statement that claims it.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		// The label is both a goto target and (for loops/switches) the name
		// break/continue statements refer to.
		target := b.labels[s.Label.Name]
		if target == nil {
			target = b.newBlock("label." + s.Label.Name)
			b.labels[s.Label.Name] = target
		}
		b.edgeFromCur(target)
		b.cur = target
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		cond := b.cur
		join := b.newBlock("if.join")
		then := b.newBlock("if.then")
		if cond != nil {
			addEdge(cond, then)
			cond.Branch = s.Cond
			cond.TrueSucc = then
		}
		b.cur = then
		b.stmtList(s.Body.List)
		b.edgeFromCur(join)
		if s.Else != nil {
			els := b.newBlock("if.else")
			if cond != nil {
				addEdge(cond, els)
				cond.FalseSucc = els
			}
			b.cur = els
			b.stmt(s.Else)
			b.edgeFromCur(join)
		} else if cond != nil {
			addEdge(cond, join)
			cond.FalseSucc = join
		}
		b.cur = join

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock("for.head")
		b.edgeFromCur(head)
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
		}
		done := b.newBlock("for.done")
		body := b.newBlock("for.body")
		addEdge(head, body)
		if s.Cond != nil {
			addEdge(head, done)
			head.Branch = s.Cond
			head.TrueSucc = body
			head.FalseSucc = done
		}
		// continue re-runs Post (when present) before looping to head.
		contTo := head
		var post *Block
		if s.Post != nil {
			post = b.newBlock("for.post")
			post.Nodes = append(post.Nodes, s.Post)
			addEdge(post, head)
			contTo = post
		}
		b.loops = append(b.loops, loopCtx{label: label, breakTo: done, contTo: contTo})
		b.cur = body
		b.stmtList(s.Body.List)
		b.edgeFromCur(contTo)
		b.loops = b.loops[:len(b.loops)-1]
		b.cur = done

	case *ast.RangeStmt:
		label := b.takeLabel()
		b.add(s.X)
		head := b.newBlock("range.head")
		b.edgeFromCur(head)
		if s.Key != nil {
			head.Nodes = append(head.Nodes, s.Key)
		}
		if s.Value != nil {
			head.Nodes = append(head.Nodes, s.Value)
		}
		done := b.newBlock("range.done")
		body := b.newBlock("range.body")
		addEdge(head, body)
		addEdge(head, done)
		b.loops = append(b.loops, loopCtx{label: label, breakTo: done, contTo: head})
		b.cur = body
		b.stmtList(s.Body.List)
		b.edgeFromCur(head)
		b.loops = b.loops[:len(b.loops)-1]
		b.cur = done

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.caseClauses(label, b.cur, s.Body.List, func(cc *ast.CaseClause, blk *Block) {
			for _, e := range cc.List {
				blk.Nodes = append(blk.Nodes, e)
			}
		})

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.caseClauses(label, b.cur, s.Body.List, func(cc *ast.CaseClause, blk *Block) {
			for _, e := range cc.List {
				blk.Nodes = append(blk.Nodes, e)
			}
		})

	case *ast.SelectStmt:
		label := b.takeLabel()
		header := b.cur
		join := b.newBlock("select.join")
		b.loops = append(b.loops, loopCtx{label: label, breakTo: join})
		for _, clause := range s.Body.List {
			cc := clause.(*ast.CommClause)
			kind := "select.case"
			if cc.Comm == nil {
				kind = "select.default"
			}
			blk := b.newBlock(kind)
			if header != nil {
				addEdge(header, blk)
			}
			b.cur = blk
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.edgeFromCur(join)
		}
		b.loops = b.loops[:len(b.loops)-1]
		// A select with no clauses blocks forever: join stays unreachable.
		b.cur = join

	case *ast.ReturnStmt:
		b.add(s)
		b.edgeFromCur(b.cfg.Exit)
		b.cur = nil

	case *ast.BranchStmt:
		b.branch(s)

	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			b.cur = nil // a panicking path does not reach Exit normally
		}

	case nil:
		// tolerated: optional else / init slots handled by callers

	default:
		// AssignStmt, DeclStmt, IncDecStmt, SendStmt, GoStmt, EmptyStmt, ...
		b.add(s)
	}
}

// caseClauses wires the shared switch/type-switch shape: every case body
// branches from the header; a missing default adds a header->join edge;
// fallthrough falls into the next case's body.
func (b *cfgBuilder) caseClauses(label string, header *Block, clauses []ast.Stmt, guards func(*ast.CaseClause, *Block)) {
	join := b.newBlock("switch.join")
	bodies := make([]*Block, len(clauses))
	hasDefault := false
	for i, clause := range clauses {
		cc := clause.(*ast.CaseClause)
		kind := "switch.case"
		if cc.List == nil {
			kind = "switch.default"
			hasDefault = true
		}
		bodies[i] = b.newBlock(kind)
		if header != nil {
			addEdge(header, bodies[i])
		}
		guards(cc, bodies[i])
	}
	if !hasDefault && header != nil {
		addEdge(header, join)
	}
	b.loops = append(b.loops, loopCtx{label: label, breakTo: join})
	for i, clause := range clauses {
		cc := clause.(*ast.CaseClause)
		b.cur = bodies[i]
		n := len(cc.Body)
		for j, st := range cc.Body {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH && j == n-1 {
				if i+1 < len(bodies) {
					b.edgeFromCur(bodies[i+1])
				}
				b.cur = nil
				continue
			}
			b.stmt(st)
		}
		b.edgeFromCur(join)
	}
	b.loops = b.loops[:len(b.loops)-1]
	b.cur = join
}

func (b *cfgBuilder) branch(s *ast.BranchStmt) {
	b.add(s)
	switch s.Tok {
	case token.BREAK:
		if t := b.findLoop(s.Label, false); t != nil {
			b.edgeFromCur(t.breakTo)
		}
	case token.CONTINUE:
		if t := b.findLoop(s.Label, true); t != nil {
			b.edgeFromCur(t.contTo)
		}
	case token.GOTO:
		target := b.labels[s.Label.Name]
		if target == nil {
			target = b.newBlock("label." + s.Label.Name)
			b.labels[s.Label.Name] = target
		}
		b.edgeFromCur(target)
	case token.FALLTHROUGH:
		// handled by caseClauses; a stray one terminates the path
	}
	b.cur = nil
}

// findLoop resolves a break/continue target, innermost first; continue only
// matches contexts that have a continue target (loops, not switch/select).
func (b *cfgBuilder) findLoop(label *ast.Ident, needCont bool) *loopCtx {
	for i := len(b.loops) - 1; i >= 0; i-- {
		c := &b.loops[i]
		if needCont && c.contTo == nil {
			continue
		}
		if label == nil || c.label == label.Name {
			return c
		}
	}
	return nil
}

// isPanicCall reports whether e is a call to the builtin panic.
func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

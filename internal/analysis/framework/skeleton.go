package framework

// skeleton.go extracts the communication skeleton of per-processor (SPMD)
// protocol functions: the Send/Recv/RecvDeadline/Barrier sites they contain,
// the loops those sites sit in (with trip bounds proved through the interval
// lattice where the bound expression is derivable from world parameters),
// and the constructs that make a function unmodelable for explicit-state
// checking (raw goroutines, select, channel operations, deferred
// communication, structurally unbounded communication loops).
//
// The skeleton is an *annotation layer over the real AST*, not a separate
// IR: the protomc model checker interprets the original function bodies and
// uses the skeleton only as a gate (is this call tree modelable?) and as an
// index (which call expressions are communication, where do counterexample
// traces anchor). Keeping the AST authoritative means the checker can never
// drift from the code it certifies.
//
// Communication is recognized the way chanproto recognizes it: a method call
// whose receiver's named type is Proc and whose name is one of the
// communication verbs. The name-based match lets the same extractor work on
// the real machine.Proc and on the miniature stand-ins the self-contained
// test fixtures declare.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// CommKind classifies a communication site.
type CommKind int

const (
	CommSend CommKind = iota
	CommRecv
	CommRecvDeadline
	CommBarrier
)

func (k CommKind) String() string {
	switch k {
	case CommSend:
		return "send"
	case CommRecv:
		return "recv"
	case CommRecvDeadline:
		return "recv-deadline"
	case CommBarrier:
		return "barrier"
	}
	return "?"
}

// commVerbs maps communication method names to their kind and the index of
// the tag (or phase) argument.
var commVerbs = map[string]struct {
	kind   CommKind
	tagArg int
}{
	"Send":         {CommSend, 1},
	"Recv":         {CommRecv, 1},
	"RecvDeadline": {CommRecvDeadline, 1},
	"Barrier":      {CommBarrier, 0},
}

// CommSite is one communication operation in a function body.
type CommSite struct {
	Kind   CommKind
	Method string
	Call   *ast.CallExpr
	// Rank is the peer-rank expression (nil for barriers): the argument
	// protomc folds over concrete worlds — e.g. g[(dst+rootIdx)%n].
	Rank ast.Expr
	// Tag is the tag expression (the phase expression for barriers).
	Tag ast.Expr
}

// Blocker is a construct that makes a function unmodelable.
type Blocker struct {
	Pos    token.Pos
	Reason string
}

// CommLoop is a for/range statement containing communication, with the trip
// bound proved (or not) under the world axioms.
type CommLoop struct {
	Loop ast.Stmt
	// Bound is the interval of the loop's upper-bound expression under the
	// axioms; FullInterval when the loop is structurally bounded (monotone
	// counter against a loop-invariant limit) but the limit expression is
	// not derivable from world parameters.
	Bound Interval
	// Proved reports that the loop terminates under the axioms.
	Proved bool
}

// Skeleton is the extracted communication shape of one declared function.
type Skeleton struct {
	Key      string
	Node     *CGNode
	Sites    []CommSite
	Loops    []CommLoop
	Blockers []Blocker
	// Indirect lists call sites through func-typed values (hook fields,
	// callbacks). They are not hard blockers — a nil hook never runs — but
	// the checker must refuse any world in which one is actually invoked
	// with an unknown target.
	Indirect []token.Pos
}

// HasComm reports whether the function itself contains a comm site.
func (s *Skeleton) HasComm() bool { return len(s.Sites) > 0 }

// WorldAxioms bound the world parameters a skeleton is instantiated with,
// feeding the interval engine when it proves loop bounds: integer
// parameters (ranks, roots, counts) lie in [0, MaxRank]; slice parameters
// (groups, payload vectors) have length at most MaxLen.
type WorldAxioms struct {
	MaxRank uint64
	MaxLen  uint64
}

// DefaultWorldAxioms covers the worlds protomc instantiates (n <= 5 plus
// small fault-tolerant grids).
func DefaultWorldAxioms() WorldAxioms { return WorldAxioms{MaxRank: 64, MaxLen: 64} }

// SkeletonSet holds the skeletons of every declared function in a package
// set, with transitive comm-reachability and blocker queries over the call
// graph.
type SkeletonSet struct {
	ByKey  map[string]*Skeleton
	graph  *CallGraph
	reach  map[string]bool
	blocks map[string][]Blocker
}

// ExtractSkeletons builds the skeleton of every function in the summaries'
// call graph.
func ExtractSkeletons(sums *Summaries, ax WorldAxioms) *SkeletonSet {
	set := &SkeletonSet{
		ByKey:  make(map[string]*Skeleton),
		graph:  sums.Graph,
		reach:  make(map[string]bool),
		blocks: make(map[string][]Blocker),
	}
	for key, n := range sums.Graph.Nodes {
		set.ByKey[key] = extractOne(n, ax)
	}
	return set
}

// CommSiteAt returns the comm site for a call expression, if the call is
// communication ([ok] mirrors chanproto's commCall classification).
func CommSiteAt(info *types.Info, call *ast.CallExpr) (CommSite, bool) {
	if RecvTypeName(info, call) != "Proc" {
		return CommSite{}, false
	}
	id := CalleeIdent(call)
	if id == nil {
		return CommSite{}, false
	}
	verb, ok := commVerbs[id.Name]
	if !ok || len(call.Args) <= verb.tagArg {
		return CommSite{}, false
	}
	site := CommSite{Kind: verb.kind, Method: id.Name, Call: call, Tag: call.Args[verb.tagArg]}
	if verb.kind != CommBarrier {
		site.Rank = call.Args[0]
	}
	return site, true
}

// extractOne walks one function body.
func extractOne(n *CGNode, ax WorldAxioms) *Skeleton {
	sk := &Skeleton{Key: n.Key, Node: n}
	info := n.Pkg.Info

	// Pass 1: comm sites, hard blockers, indirect calls.
	ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
		switch s := m.(type) {
		case *ast.GoStmt:
			sk.Blockers = append(sk.Blockers, Blocker{s.Pos(), "go statement: unmodeled concurrency"})
		case *ast.SelectStmt:
			sk.Blockers = append(sk.Blockers, Blocker{s.Pos(), "select statement"})
		case *ast.SendStmt:
			sk.Blockers = append(sk.Blockers, Blocker{s.Pos(), "raw channel send"})
		case *ast.UnaryExpr:
			if s.Op == token.ARROW {
				sk.Blockers = append(sk.Blockers, Blocker{s.Pos(), "raw channel receive"})
			}
		case *ast.DeferStmt:
			if containsComm(info, s) {
				sk.Blockers = append(sk.Blockers, Blocker{s.Pos(), "deferred communication"})
			}
		case *ast.CallExpr:
			if site, ok := CommSiteAt(info, s); ok {
				sk.Sites = append(sk.Sites, site)
			} else if isIndirectCall(info, s) {
				sk.Indirect = append(sk.Indirect, s.Pos())
			}
		}
		return true
	})

	// Pass 2: bound every loop that contains communication (directly or via
	// a call — any call at all, conservatively: the callee may communicate).
	env := axiomEnv(n, ax)
	ev := &IntervalEval{Info: info}
	ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
		switch loop := m.(type) {
		case *ast.RangeStmt:
			if !containsComm(info, loop.Body) && !containsCall(loop.Body) {
				return true
			}
			// Ranging over a slice/map/string/int is bounded by the
			// container's length; only channel ranges block.
			if t := info.Types[loop.X].Type; t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					sk.Blockers = append(sk.Blockers, Blocker{loop.Pos(), "range over channel in communication loop"})
					return true
				}
			}
			sk.Loops = append(sk.Loops, CommLoop{Loop: loop, Bound: NewInterval(0, ax.MaxLen), Proved: true})
		case *ast.ForStmt:
			if !containsComm(info, loop.Body) && !containsCall(loop.Body) {
				return true
			}
			cl := boundForLoop(ev, env, loop, ax)
			sk.Loops = append(sk.Loops, cl)
			if !cl.Proved {
				sk.Blockers = append(sk.Blockers, Blocker{loop.Pos(), "communication loop with no provable trip bound"})
			}
		}
		return true
	})
	return sk
}

// axiomEnv seeds an interval environment from the world axioms: integer
// parameters in [0, MaxRank]; locals initialized as len(param) in
// [0, MaxLen] (the `n := len(g)` idiom every collective opens with).
func axiomEnv(n *CGNode, ax WorldAxioms) *IntervalEnv {
	env := NewIntervalEnv()
	info := n.Pkg.Info
	params := map[types.Object]bool{}
	addField := func(f *ast.Field) {
		for _, name := range f.Names {
			obj := info.Defs[name]
			if obj == nil {
				continue
			}
			params[obj] = true
			if isIntegerType(obj.Type()) {
				env.Set(KeyOf(obj), NewInterval(0, ax.MaxRank))
			}
		}
	}
	if n.Decl.Recv != nil {
		for _, f := range n.Decl.Recv.List {
			addField(f)
		}
	}
	for _, f := range n.Decl.Type.Params.List {
		addField(f)
	}
	ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
		as, ok := m.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		id, isIdent := call.Fun.(*ast.Ident)
		if !isIdent || id.Name != "len" {
			return true
		}
		if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
			return true
		}
		arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
		if !ok || !params[info.Uses[arg]] {
			return true
		}
		if lhs, ok := as.Lhs[0].(*ast.Ident); ok {
			if obj := info.Defs[lhs]; obj != nil {
				env.Set(KeyOf(obj), NewInterval(0, ax.MaxLen))
			}
		}
		return true
	})
	return env
}

// boundForLoop proves a for-loop bounded: the condition must compare a
// counter against a limit (`x < E`, `x <= E`), the body/post must climb the
// counter (x++, x += c, x <<= c, or x += s for a loop-invariant stride),
// and E must be loop-invariant (no identifier of E assigned in the body).
// Conjunctive conditions `A && B` prove when either conjunct does: the loop
// exits as soon as any conjunct fails. The bound interval comes from
// evaluating E in the axiom environment; a monotone loop whose limit is not
// derivable still proves, with a Full bound.
func boundForLoop(ev *IntervalEval, env *IntervalEnv, loop *ast.ForStmt, ax WorldAxioms) CommLoop {
	cl := CommLoop{Loop: loop, Bound: FullInterval()}
	if loop.Cond == nil {
		return cl
	}
	if iv, ok := proveLoopCond(ev, env, ast.Unparen(loop.Cond), loop); ok {
		cl.Proved = true
		if !iv.IsEmpty() && !iv.IsFull() {
			cl.Bound = iv
		}
	}
	return cl
}

// proveLoopCond proves one (sub)condition bounds the loop, returning the
// limit's interval when derivable.
func proveLoopCond(ev *IntervalEval, env *IntervalEnv, e ast.Expr, loop *ast.ForStmt) (Interval, bool) {
	cond, ok := e.(*ast.BinaryExpr)
	if !ok {
		return FullInterval(), false
	}
	if cond.Op == token.LAND {
		if iv, ok := proveLoopCond(ev, env, ast.Unparen(cond.X), loop); ok {
			return iv, true
		}
		return proveLoopCond(ev, env, ast.Unparen(cond.Y), loop)
	}
	if cond.Op != token.LSS && cond.Op != token.LEQ {
		return FullInterval(), false
	}
	counter, ok := ast.Unparen(cond.X).(*ast.Ident)
	if !ok {
		return FullInterval(), false
	}
	if !strictlyIncreases(counter.Name, loop.Post, loop) && !strictlyIncreases(counter.Name, loop.Body, loop) {
		return FullInterval(), false
	}
	if assignsAnyIdent(loop.Body, identNames(cond.Y)) {
		return FullInterval(), false
	}
	return ev.Eval(cond.Y, env), true
}

// strictlyIncreases reports whether stmt (or some statement under it)
// climbs the named counter: x++, x += c (c > 0 constant), x <<= c / x *= c
// (doubling walks like binomial-tree rounds), or x += s for a
// loop-invariant identifier stride s (offset-class walks like
// `for u := c; u < len(v); u += cols`). The last form is monotone only when
// the concrete stride is positive, which the model checker's interpreter
// observes directly — a zero stride exhausts its step budget and is
// reported, never silently looped.
func strictlyIncreases(name string, stmt ast.Node, loop *ast.ForStmt) bool {
	if stmt == nil {
		return false
	}
	found := false
	ast.Inspect(stmt, func(m ast.Node) bool {
		switch s := m.(type) {
		case *ast.IncDecStmt:
			if id, ok := s.X.(*ast.Ident); ok && id.Name == name && s.Tok == token.INC {
				found = true
			}
		case *ast.AssignStmt:
			if len(s.Lhs) != 1 {
				return true
			}
			id, ok := s.Lhs[0].(*ast.Ident)
			if !ok || id.Name != name {
				return true
			}
			switch s.Tok {
			case token.ADD_ASSIGN, token.SHL_ASSIGN, token.MUL_ASSIGN:
				if lit, ok := ast.Unparen(s.Rhs[0]).(*ast.BasicLit); ok && lit.Kind == token.INT && lit.Value != "0" {
					found = true
				}
				if s.Tok != token.ADD_ASSIGN {
					return true
				}
				if stride, ok := ast.Unparen(s.Rhs[0]).(*ast.Ident); ok &&
					!assignsAnyIdent(loop.Body, map[string]bool{stride.Name: true}) {
					found = true
				}
			}
		}
		return true
	})
	return found
}

func identNames(e ast.Expr) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(e, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			out[id.Name] = true
		}
		return true
	})
	return out
}

func assignsAnyIdent(body ast.Node, names map[string]bool) bool {
	hit := false
	ast.Inspect(body, func(m ast.Node) bool {
		switch s := m.(type) {
		case *ast.AssignStmt:
			for _, l := range s.Lhs {
				if id, ok := l.(*ast.Ident); ok && names[id.Name] {
					hit = true
				}
			}
		case *ast.IncDecStmt:
			if id, ok := s.X.(*ast.Ident); ok && names[id.Name] {
				hit = true
			}
		}
		return true
	})
	return hit
}

// containsComm reports whether any comm site sits under root.
func containsComm(info *types.Info, root ast.Node) bool {
	found := false
	ast.Inspect(root, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			if _, ok := CommSiteAt(info, call); ok {
				found = true
			}
		}
		return !found
	})
	return found
}

func containsCall(root ast.Node) bool {
	found := false
	ast.Inspect(root, func(m ast.Node) bool {
		if _, ok := m.(*ast.CallExpr); ok {
			found = true
		}
		return !found
	})
	return found
}

// isIndirectCall reports a call through a func-typed value: not a declared
// func/method, not a conversion, not a builtin, not a method value the
// type-checker resolves. These are soft blockers (see Skeleton.Indirect).
func isIndirectCall(info *types.Info, call *ast.CallExpr) bool {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj := info.Uses[fn]
		if obj == nil { // builtin (len, append, ...)
			return false
		}
		switch obj.(type) {
		case *types.Func, *types.TypeName, *types.Builtin:
			return false
		}
		_, isSig := obj.Type().Underlying().(*types.Signature)
		return isSig
	case *ast.SelectorExpr:
		obj := info.Uses[fn.Sel]
		switch obj.(type) {
		case *types.Func, *types.TypeName, nil:
			return false
		}
		_, isSig := obj.Type().Underlying().(*types.Signature)
		return isSig
	case *ast.FuncLit:
		return false // interpreted directly
	}
	// Conversions like machine.Ints(x) parse as CallExpr with other Fun
	// shapes (e.g. ArrayType); they are not calls at all.
	if _, isConv := info.Types[call.Fun]; isConv {
		return false
	}
	return false
}

// Modelable reports whether key's whole transitive call tree (within the
// graph) is blocker-free, and returns the blockers found otherwise. Calls
// that leave the graph (stdlib, other packages without source) are fine:
// the checker bridges or abstracts them; they cannot communicate on the
// model machine.
func (set *SkeletonSet) Modelable(key string) (bool, []Blocker) {
	bl := set.transitiveBlockers(key, map[string]bool{})
	return len(bl) == 0, bl
}

// CommReach reports whether key transitively contains a comm site.
func (set *SkeletonSet) CommReach(key string) bool {
	if v, ok := set.reach[key]; ok {
		return v
	}
	set.reach[key] = false // cycle guard
	sk := set.ByKey[key]
	if sk == nil {
		return false
	}
	v := sk.HasComm()
	if !v {
		for callee := range sk.Node.Calls {
			if set.CommReach(callee) {
				v = true
				break
			}
		}
	}
	set.reach[key] = v
	return v
}

func (set *SkeletonSet) transitiveBlockers(key string, seen map[string]bool) []Blocker {
	if seen[key] {
		return nil
	}
	seen[key] = true
	if bl, ok := set.blocks[key]; ok {
		return bl
	}
	sk := set.ByKey[key]
	if sk == nil {
		return nil
	}
	bl := append([]Blocker(nil), sk.Blockers...)
	for callee := range sk.Node.Calls {
		if n := set.ByKey[callee]; n != nil && ModelBoundaryPkg(n.Node.Pkg.Path) {
			continue
		}
		bl = append(bl, set.transitiveBlockers(callee, seen)...)
	}
	set.blocks[key] = bl
	return bl
}

// DescribeBlockers renders blockers for diagnostics.
func (set *SkeletonSet) DescribeBlockers(fset *token.FileSet, bl []Blocker) string {
	s := ""
	for i, b := range bl {
		if i > 0 {
			s += "; "
		}
		p := fset.Position(b.Pos)
		s += fmt.Sprintf("%s (%s:%d)", b.Reason, p.Filename, p.Line)
	}
	return s
}

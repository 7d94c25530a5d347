package framework

// eval.go is the Go-subset evaluator under protomc and costbound. It
// executes the real AST bodies of the protocol packages (collective,
// parallel, ftparallel, ftengine and self-contained fixtures) over abstract
// values and owns everything the two analyzers share: lexical scopes and
// closures, parameter binding (variadic, named results), static and
// devirtualized calls through the call graph, defers, statements,
// assignment targets, range and switch, composite literals, zero values,
// builtins, the machine/arithmetic boundary (boundary.go) and the fuel
// budget.
//
// A Domain supplies only what differs between the analyzers: its own leaf
// values (payload scalars, limb vectors, processor handles), the policy for
// a branch whose condition is unknown and for a loop whose trip count is
// unknown, and the boundary verbs (model-checker transport for protomc,
// cost contracts for costbound). Integers are shared: a known constant, a
// symbolic expression (only costbound's symbolic collectives introduce
// variables), or unknown.
//
// Anything outside the modeled fragment aborts evaluation with an
// *EvalError panic that each analyzer surfaces as a visible finding: a
// clean report always means the code was executed, never skipped.

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// Value is an abstract value: one of the shared types below, or a leaf
// value of the running Domain.
type Value any

// Int is an integer: a known constant, a symbolic expression, or unknown.
type Int struct {
	Known bool
	C     int64    // the value, when Known and Sym is nil
	Sym   *SymExpr // a non-constant symbolic value
}

// Float is a float64 (virtual clocks, deadlines); carried, never branched on.
type Float struct {
	Known bool
	V     float64
}

// Bool is a boolean; unknown booleans steer the domain's branch policy.
type Bool struct{ Known, V bool }

// Str is a string (message tags, phases, cache keys).
type Str struct {
	Known bool
	V     string
}

// Nil is the nil of any nilable type, including nil errors.
type Nil struct{}

// Err is a non-nil error value.
type Err struct{ Msg string }

// Slice is a slice or array with concrete length; used by pointer so
// element writes alias like Go slices.
type Slice struct{ Elems []Value }

// Map is a map with concretely rendered keys, iterated in insertion order
// (the modeled code sorts wherever map order matters).
type Map struct {
	keys []string
	vals map[string]mapEntry
}

type mapEntry struct{ key, val Value }

// Struct is a struct or pointer-to-struct with reference semantics.
// PkgPath records the named type's package so interface method calls
// devirtualize against its declared methods; fields never written read as
// the zero value of their declared type.
type Struct struct {
	Type    string
	PkgPath string
	Fields  map[string]Value
}

// Closure is a function literal with its captured scope.
type Closure struct {
	Lit *ast.FuncLit
	Env *Scope
	Pkg *Package
}

// Func is a declared function or method used as a value; Recv is the bound
// receiver of a method value (nil otherwise).
type Func struct {
	Fn   *types.Func
	Recv Value
}

// Machine is the simulated machine built by machine.New: its processor
// count. Its Run hands the SPMD program to the analyzer (CaptureRun).
type Machine struct{ P int64 }

// KnownInt, KnownBool and KnownStr build known shared scalars.
func KnownInt(c int64) Int          { return Int{Known: true, C: c} }
func KnownBool(b bool) Bool         { return Bool{Known: true, V: b} }
func KnownStr(s string) Str         { return Str{Known: true, V: s} }
func NewSlice(elems []Value) *Slice { return &Slice{Elems: elems} }
func NewMap() *Map                  { return &Map{vals: map[string]mapEntry{}} }

// SymInt wraps a symbolic expression, folding constants.
func SymInt(e SymExpr) Int {
	if c, ok := e.IsConst(); ok {
		return KnownInt(c)
	}
	return Int{Known: true, Sym: &e}
}

// Const returns the integer's value when it is a known constant.
func (i Int) Const() (int64, bool) { return i.C, i.Known && i.Sym == nil }

// Expr returns the integer as a symbolic expression when it is known.
func (i Int) Expr() (SymExpr, bool) {
	switch {
	case !i.Known:
		return SymExpr{}, false
	case i.Sym != nil:
		return *i.Sym, true
	}
	return SymConst(i.C), true
}

// ---------------------------------------------------------------------------
// Scopes, frames and control flow.

// Cell is one variable binding; closures share cells with their creator.
type Cell struct{ V Value }

// Scope is a lexical block; closures capture their defining scope.
type Scope struct {
	parent *Scope
	vars   map[types.Object]*Cell
}

// NewScope opens a block under parent.
func NewScope(parent *Scope) *Scope { return &Scope{parent: parent} }

// Lookup finds obj's cell in the scope chain.
func (s *Scope) Lookup(obj types.Object) *Cell {
	for sc := s; sc != nil; sc = sc.parent {
		if c, ok := sc.vars[obj]; ok {
			return c
		}
	}
	return nil
}

// Define binds obj in this block.
func (s *Scope) Define(obj types.Object, v Value) *Cell {
	if s.vars == nil {
		s.vars = map[types.Object]*Cell{}
	}
	c := &Cell{V: v}
	s.vars[obj] = c
	return c
}

// Flow is the control outcome of a statement.
type Flow int

const (
	FlowNormal Flow = iota
	FlowReturn
	FlowBreak
	FlowContinue
)

// Exit is one return out of a frame: its values and the domain's state
// mark at the return.
type Exit struct {
	Vals []Value
	Mark any
}

// Frame is one function activation.
type Frame struct {
	Sig    *types.Signature
	Exits  []Exit
	named  []*Cell
	defers []func()
}

// Loop is an enclosing loop or switch: the domain marks recorded at its
// breaks. A switch frame absorbs break without recording it.
type Loop struct {
	Breaks []any
	sw     bool
}

// Trail records first writes to cells so an evaluated region can be
// rolled back (costbound's branch joins and loop widening).
type Trail struct {
	Saved map[*Cell]Value
	Order []*Cell
}

// EvalError aborts evaluation; the analyzer reports it as a finding.
type EvalError struct {
	Pos token.Pos
	Msg string
}

func (e *EvalError) Error() string { return e.Msg }

// Missing aborts evaluation at a callee in an interpreted package whose
// source is not in the analyzed set (a partial load, not a finding).
type Missing struct{ Key string }

func (e Missing) Error() string { return "missing source for " + e.Key }

// Domain supplies what differs between the analyzers.
type Domain interface {
	// Zero is the domain's zero value of t (ok=false: the structural zero).
	Zero(t types.Type) (Value, bool)
	// Scalar is a fresh payload scalar (a bigint.Int digit) and Vector a
	// limb vector of n entries, or of unknown length for an unknown n
	// (ok=false: the evaluator materializes a *Slice of scalars).
	Scalar() Value
	Vector(n Int) (Value, bool)
	// Opaque is the domain's value for a modeled result of type t that is
	// neither a number, a payload scalar nor a limb vector.
	Opaque(t types.Type) Value
	// Op evaluates what the evaluator cannot decide: an operator (op is a
	// token.Token; args holds the right operand of a binary one), the
	// "len" or "append" builtin, or an OpIndex/OpSlice/OpField read or an
	// OpStore write with a domain value x, and an OpIndex into a *Slice by
	// an unknown integer.
	Op(ev *Eval, op any, x Value, args []Value, e ast.Expr) Value
	// Cond pre-empts a comparison (ok=false: evaluate normally).
	Cond(ev *Eval, sc *Scope, x *ast.BinaryExpr) (Bool, bool)
	// Branch runs an if statement whose condition is not a known bool.
	Branch(ev *Eval, sc *Scope, st *ast.IfStmt) Flow
	// Loop runs a loop whose trip count the evaluator cannot decide: a for
	// statement whose first condition is unknown (x is nil), or a range
	// over x.
	Loop(ev *Eval, sc *Scope, st ast.Stmt, x Value) Flow
	// Call serves the domain's boundary verbs (ok=false: not a verb).
	Call(ev *Eval, fn *types.Func, recv Value, args []Value, call *ast.CallExpr) ([]Value, bool)
	// Modeled refines a modeled (non-interpreted) call's results, shaped by
	// the boundary declaration (ModeledResults).
	Modeled(ev *Eval, fn *types.Func, recv Value, args []Value, call *ast.CallExpr) []Value
	// Mark snapshots the domain's state at a return or break; Finish
	// merges a returning frame's exits into its results.
	Mark() any
	Finish(ev *Eval, exits []Exit, pos token.Pos) []Value
	JoinBreaks(marks []any)
}

// Builtin-like operations routed to Domain.Op.
const (
	OpIndex = "index"
	OpSlice = "slice"
	OpField = "field"
	OpStore = "store" // a write through an index or field
)

// ConstOf returns v's value when it is a known constant integer.
func ConstOf(v Value) (int64, bool) {
	i, ok := v.(Int)
	if !ok {
		return 0, false
	}
	return i.Const()
}

// IntOf returns v as an integer (unknown when v is not one).
func IntOf(v Value) Int {
	i, _ := v.(Int)
	return i
}

// Eval is one evaluation context (one model processor, one derivation).
type Eval struct {
	Sums *Summaries
	D    Domain
	Fuel *int64 // remaining step budget, shareable across contexts

	pkg    *Package
	frame  *Frame
	loops  []*Loop
	trails []*Trail
	depth  int
}

// NewEval builds an evaluator with its own budget of fuel steps.
func NewEval(sums *Summaries, d Domain, fuel int64) *Eval {
	return &Eval{Sums: sums, D: d, Fuel: &fuel}
}

// Pkg is the package whose type information resolves the current code.
func (ev *Eval) Pkg() *Package { return ev.pkg }

// Frame is the current function activation.
func (ev *Eval) Frame() *Frame { return ev.frame }

// PushLoop opens a loop frame; PopLoop closes it.
func (ev *Eval) PushLoop(l *Loop) { ev.loops = append(ev.loops, l) }
func (ev *Eval) PopLoop()         { ev.loops = ev.loops[:len(ev.loops)-1] }

// Reset clears the control state a failed evaluation may leave behind.
func (ev *Eval) Reset() { ev.frame, ev.loops, ev.trails, ev.depth = nil, nil, nil, 0 }

// Fail aborts evaluation at pos.
func (ev *Eval) Fail(pos token.Pos, format string, args ...any) {
	panic(&EvalError{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (ev *Eval) step(pos token.Pos) {
	*ev.Fuel--
	if *ev.Fuel < 0 {
		ev.Fail(pos, "evaluation step budget exhausted (interpretation diverged?)")
	}
}

// PushTrail opens a write trail; PopTrail closes the innermost one,
// rolling its cells back when restore is set, and returns each recorded
// cell's final value.
func (ev *Eval) PushTrail() *Trail {
	t := &Trail{Saved: map[*Cell]Value{}}
	ev.trails = append(ev.trails, t)
	return t
}

func (ev *Eval) PopTrail(restore bool) map[*Cell]Value {
	t := ev.trails[len(ev.trails)-1]
	ev.trails = ev.trails[:len(ev.trails)-1]
	finals := make(map[*Cell]Value, len(t.Order))
	for _, c := range t.Order {
		finals[c] = c.V
		if restore {
			c.V = t.Saved[c]
		}
	}
	return finals
}

// SetCell writes a cell, recording the first write into every open trail.
func (ev *Eval) SetCell(c *Cell, v Value) {
	for _, t := range ev.trails {
		if _, seen := t.Saved[c]; !seen {
			t.Saved[c] = c.V
			t.Order = append(t.Order, c)
		}
	}
	c.V = v
}

// Object resolves an identifier.
func (ev *Eval) Object(id *ast.Ident) types.Object {
	if obj := ev.pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return ev.pkg.Info.Defs[id]
}

// TypeOf is the static type of e.
func (ev *Eval) TypeOf(e ast.Expr) types.Type { return ev.pkg.Info.TypeOf(e) }

// ---------------------------------------------------------------------------
// Calls.

// CallNode interprets a declared function or method body.
func (ev *Eval) CallNode(node *CGNode, recv Value, args []Value, call *ast.CallExpr) []Value {
	pos := node.Decl.Pos()
	if call != nil {
		pos = call.Pos()
	}
	if node.Decl.Body == nil {
		ev.Fail(pos, "callee %s has no body", node.Key)
	}
	sig, _ := node.Fn.Type().(*types.Signature)
	savedPkg := ev.pkg
	ev.pkg = node.Pkg
	sc := NewScope(nil)
	if r := node.Decl.Recv; r != nil && len(r.List) > 0 && len(r.List[0].Names) > 0 {
		if obj := ev.pkg.Info.Defs[r.List[0].Names[0]]; obj != nil {
			sc.Define(obj, recv)
		}
	}
	out := ev.callBody(sig, node.Decl.Type, node.Decl.Body, sc, args, call, pos)
	ev.pkg = savedPkg
	return out
}

// CallValue invokes a function value: a closure or a declared function.
func (ev *Eval) CallValue(fv Value, args []Value, call *ast.CallExpr, pos token.Pos) []Value {
	switch f := fv.(type) {
	case *Closure:
		savedPkg := ev.pkg
		ev.pkg = f.Pkg
		sig, _ := f.Pkg.Info.TypeOf(f.Lit).(*types.Signature)
		out := ev.callBody(sig, f.Lit.Type, f.Lit.Body, NewScope(f.Env), args, call, pos)
		ev.pkg = savedPkg
		return out
	case Func:
		return ev.dispatch(f.Fn, f.Recv, args, call, pos)
	case Nil:
		ev.Fail(pos, "call through nil func value")
	}
	ev.Fail(pos, "call through %T is not modeled", fv)
	return nil
}

func (ev *Eval) callBody(sig *types.Signature, ft *ast.FuncType, body *ast.BlockStmt, sc *Scope, args []Value, call *ast.CallExpr, pos token.Pos) []Value {
	ev.step(pos)
	ev.depth++
	if ev.depth > 200 {
		ev.Fail(pos, "call depth exceeded")
	}
	savedFrame, savedLoops := ev.frame, ev.loops
	fr := &Frame{Sig: sig}
	ev.frame, ev.loops = fr, nil

	spread := call != nil && call.Ellipsis.IsValid()
	ai := 0
	params := ft.Params.List
	for pi, f := range params {
		_, variadic := f.Type.(*ast.Ellipsis)
		variadic = variadic && pi == len(params)-1
		names := f.Names
		if len(names) == 0 {
			names = []*ast.Ident{nil}
		}
		for _, name := range names {
			var v Value
			switch {
			case variadic && spread:
				v = Value(Nil{})
				if ai < len(args) {
					v = args[ai]
				}
				ai = len(args)
			case variadic:
				v = NewSlice(append([]Value(nil), args[ai:]...))
				ai = len(args)
			case ai < len(args):
				v = args[ai]
				ai++
			default:
				ev.Fail(pos, "missing argument %d", ai)
			}
			if name != nil && name.Name != "_" {
				if obj := ev.pkg.Info.Defs[name]; obj != nil {
					sc.Define(obj, v)
				}
			}
		}
	}
	if ft.Results != nil {
		for _, f := range ft.Results.List {
			for _, name := range f.Names {
				obj := ev.pkg.Info.Defs[name]
				if obj == nil || name.Name == "_" {
					fr.named = append(fr.named, &Cell{V: ev.Zero(f.Type.Pos(), ev.TypeOf(f.Type))})
					continue
				}
				fr.named = append(fr.named, sc.Define(obj, ev.Zero(name.Pos(), obj.Type())))
			}
		}
	}

	if ev.execList(body.List, sc) != FlowReturn {
		ev.exit(ev.namedResults())
	}
	for i := len(fr.defers) - 1; i >= 0; i-- {
		fr.defers[i]()
	}
	if len(fr.defers) > 0 && len(fr.named) > 0 && len(fr.Exits) == 1 {
		fr.Exits[0].Vals = ev.namedResults() // deferred calls may rewrite them
	}
	out := ev.D.Finish(ev, fr.Exits, pos)
	ev.frame, ev.loops = savedFrame, savedLoops
	ev.depth--
	return out
}

func (ev *Eval) namedResults() []Value {
	var vals []Value
	for _, c := range ev.frame.named {
		vals = append(vals, c.V)
	}
	return vals
}

func (ev *Eval) exit(vals []Value) {
	ev.frame.Exits = append(ev.frame.Exits, Exit{Vals: vals, Mark: ev.D.Mark()})
}

// call evaluates a call expression.
func (ev *Eval) call(sc *Scope, call *ast.CallExpr) []Value {
	fun := ast.Unparen(call.Fun)
	info := ev.pkg.Info
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return []Value{ev.convert(ev.Expr(sc, call.Args[0]), tv.Type, call.Pos())}
	}
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			return ev.builtin(sc, call, b.Name())
		}
	}
	fn, recv, fv := ev.callee(sc, call)
	args := ev.args(sc, call)
	if fn != nil {
		return ev.dispatch(fn, recv, args, call, call.Pos())
	}
	return ev.CallValue(fv, args, call, call.Pos())
}

// callee resolves a call's target: a static function (with its receiver
// evaluated for methods) or a function value.
func (ev *Eval) callee(sc *Scope, call *ast.CallExpr) (*types.Func, Value, Value) {
	fn := CalleeFunc(ev.pkg.Info, call)
	if fn == nil {
		return nil, nil, ev.Expr(sc, call.Fun)
	}
	var recv Value
	if sig, _ := fn.Type().(*types.Signature); sig != nil && sig.Recv() != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			recv = ev.Expr(sc, sel.X)
		}
	}
	return fn, recv, nil
}

func (ev *Eval) args(sc *Scope, call *ast.CallExpr) []Value {
	args := make([]Value, len(call.Args))
	for i, a := range call.Args {
		args[i] = ev.Expr(sc, a)
	}
	return args
}

// Spread flattens a call's arguments for a modeled callee: a `...` spread
// slice contributes its elements.
func Spread(args []Value, call *ast.CallExpr) []Value {
	if call == nil || !call.Ellipsis.IsValid() || len(args) == 0 {
		return args
	}
	out := args[: len(args)-1 : len(args)-1]
	if s, ok := args[len(args)-1].(*Slice); ok {
		out = append(out, s.Elems...)
	}
	return out
}

// dispatch routes a statically resolved callee: shared boundary verbs,
// the domain's verbs, interpreted source (devirtualizing interface methods
// on struct values), and finally the modeled-call results.
func (ev *Eval) dispatch(fn *types.Func, recv Value, args []Value, call *ast.CallExpr, pos token.Pos) []Value {
	ev.step(pos)
	if out, ok := ev.sharedVerb(fn, recv, args, call, pos); ok {
		return out
	}
	if out, ok := ev.D.Call(ev, fn, recv, args, call); ok {
		return out
	}
	nodes := ev.Sums.Graph.Nodes
	if node := nodes[FuncKey(fn)]; node != nil && !ModelBoundaryPkg(node.Pkg.Path) {
		return ev.CallNode(node, recv, args, call)
	}
	if sig, _ := fn.Type().(*types.Signature); sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		if s, ok := recv.(*Struct); ok && s.PkgPath != "" {
			if node := nodes[s.PkgPath+"."+s.Type+"."+fn.Name()]; node != nil && !ModelBoundaryPkg(node.Pkg.Path) {
				return ev.CallNode(node, recv, args, call)
			}
		}
	}
	if fn.Pkg() != nil && interpretedPkg(fn.Pkg().Path()) {
		panic(Missing{Key: FuncKey(fn)})
	}
	return ev.D.Modeled(ev, fn, recv, args, call)
}

// ---------------------------------------------------------------------------
// Statements.

func (ev *Eval) execList(list []ast.Stmt, sc *Scope) Flow {
	for _, s := range list {
		if f := ev.Exec(sc, s); f != FlowNormal {
			return f
		}
	}
	return FlowNormal
}

// Exec executes one statement.
func (ev *Eval) Exec(sc *Scope, s ast.Stmt) Flow {
	if s == nil {
		return FlowNormal
	}
	ev.step(s.Pos())
	switch st := s.(type) {
	case *ast.BlockStmt:
		return ev.execList(st.List, NewScope(sc))
	case *ast.ExprStmt:
		ev.multi(sc, st.X)
		return FlowNormal
	case *ast.AssignStmt:
		ev.assign(sc, st)
		return FlowNormal
	case *ast.IncDecStmt:
		op := token.ADD
		if st.Tok == token.DEC {
			op = token.SUB
		}
		ev.store(sc, st.X, ev.binary(op, ev.Expr(sc, st.X), KnownInt(1), st.X), token.ASSIGN)
		return FlowNormal
	case *ast.DeclStmt:
		gd, ok := st.Decl.(*ast.GenDecl)
		if !ok {
			return FlowNormal
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				obj := ev.pkg.Info.Defs[name]
				if obj == nil || name.Name == "_" {
					continue
				}
				var v Value
				if i < len(vs.Values) {
					v = ev.Expr(sc, vs.Values[i])
				} else {
					v = ev.Zero(name.Pos(), obj.Type())
				}
				sc.Define(obj, v)
			}
		}
		return FlowNormal
	case *ast.IfStmt:
		sc = NewScope(sc)
		if st.Init != nil {
			ev.Exec(sc, st.Init)
		}
		if b := ev.Cond(sc, st.Cond); b.Known {
			if b.V {
				return ev.Exec(sc, st.Body)
			}
			return ev.Exec(sc, st.Else)
		}
		return ev.D.Branch(ev, sc, st)
	case *ast.ForStmt:
		return ev.execFor(sc, st)
	case *ast.RangeStmt:
		return ev.execRange(sc, st)
	case *ast.SwitchStmt:
		return ev.execSwitch(sc, st)
	case *ast.ReturnStmt:
		var vals []Value
		switch len(st.Results) {
		case 0:
			vals = ev.namedResults()
		case 1:
			vals = ev.multi(sc, st.Results[0])
		default:
			for _, r := range st.Results {
				vals = append(vals, ev.Expr(sc, r))
			}
		}
		for i, c := range ev.frame.named {
			if i < len(vals) {
				ev.SetCell(c, vals[i])
			}
		}
		ev.exit(vals)
		return FlowReturn
	case *ast.BranchStmt:
		if st.Label != nil {
			ev.Fail(st.Pos(), "labeled %s is not modeled", st.Tok)
		}
		switch st.Tok {
		case token.BREAK:
			if n := len(ev.loops); n > 0 && !ev.loops[n-1].sw {
				ev.loops[n-1].Breaks = append(ev.loops[n-1].Breaks, ev.D.Mark())
			}
			return FlowBreak
		case token.CONTINUE:
			return FlowContinue
		}
	case *ast.DeferStmt:
		// The callee and arguments evaluate now; the call runs at exit.
		call := st.Call
		fn, recv, fv := ev.callee(sc, call)
		args := ev.args(sc, call)
		pkg, fr := ev.pkg, ev.frame
		fr.defers = append(fr.defers, func() {
			saved := ev.pkg
			ev.pkg = pkg
			if fn != nil {
				ev.dispatch(fn, recv, args, call, call.Pos())
			} else {
				ev.CallValue(fv, args, call, call.Pos())
			}
			ev.pkg = saved
		})
		return FlowNormal
	case *ast.EmptyStmt:
		return FlowNormal
	}
	ev.Fail(s.Pos(), "statement %T is not modeled", s)
	return FlowNormal
}

func (ev *Eval) assign(sc *Scope, st *ast.AssignStmt) {
	if st.Tok != token.ASSIGN && st.Tok != token.DEFINE {
		op, ok := assignOps[st.Tok]
		if !ok {
			ev.Fail(st.Pos(), "assignment %s is not modeled", st.Tok)
		}
		ev.store(sc, st.Lhs[0], ev.binary(op, ev.Expr(sc, st.Lhs[0]), ev.Expr(sc, st.Rhs[0]), st.Lhs[0]), token.ASSIGN)
		return
	}
	var vals []Value
	if len(st.Lhs) > 1 && len(st.Rhs) == 1 {
		rhs := ast.Unparen(st.Rhs[0])
		switch x := rhs.(type) {
		case *ast.IndexExpr: // v, ok := m[k]
			if m, ok := ev.Expr(sc, x.X).(*Map); ok {
				v, found := ev.mapGet(m, ev.Expr(sc, x.Index), x)
				if !found {
					v = ev.Zero(x.Pos(), ev.TypeOf(x.X).Underlying().(*types.Map).Elem())
				}
				vals = []Value{v, KnownBool(found)}
			}
		case *ast.TypeAssertExpr: // v, ok := x.(T)
			vals = []Value{ev.Expr(sc, x.X), Bool{}}
		}
		if vals == nil {
			vals = ev.multi(sc, rhs)
		}
		if len(vals) != len(st.Lhs) {
			ev.Fail(st.Pos(), "assignment arity mismatch: %d values for %d targets", len(vals), len(st.Lhs))
		}
	} else {
		vals = make([]Value, len(st.Rhs))
		for i, e := range st.Rhs {
			vals[i] = ev.Expr(sc, e)
		}
	}
	for i, l := range st.Lhs {
		ev.store(sc, l, vals[i], st.Tok)
	}
}

var assignOps = map[token.Token]token.Token{
	token.ADD_ASSIGN: token.ADD, token.SUB_ASSIGN: token.SUB,
	token.MUL_ASSIGN: token.MUL, token.QUO_ASSIGN: token.QUO,
	token.REM_ASSIGN: token.REM, token.SHL_ASSIGN: token.SHL,
	token.SHR_ASSIGN: token.SHR, token.AND_ASSIGN: token.AND,
	token.OR_ASSIGN: token.OR, token.XOR_ASSIGN: token.XOR,
	token.AND_NOT_ASSIGN: token.AND_NOT,
}

// store writes v through an assignable expression; tok DEFINE binds new
// identifiers in sc.
func (ev *Eval) store(sc *Scope, lhs ast.Expr, v Value, tok token.Token) {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		if tok == token.DEFINE {
			if obj := ev.pkg.Info.Defs[l]; obj != nil {
				sc.Define(obj, v)
				return
			}
		}
		obj := ev.Object(l)
		c := sc.Lookup(obj)
		if c == nil {
			ev.Fail(l.Pos(), "assignment to unbound variable %s (package-level state is not modeled)", l.Name)
		}
		ev.SetCell(c, v)
	case *ast.IndexExpr:
		switch c := ev.Expr(sc, l.X).(type) {
		case *Slice:
			i, ok := ConstOf(ev.Expr(sc, l.Index))
			if !ok || i < 0 || int(i) >= len(c.Elems) {
				ev.Fail(l.Pos(), "slice write at a non-concrete or out-of-range index (len %d)", len(c.Elems))
			}
			c.Elems[i] = v
		case *Map:
			ev.mapSet(c, ev.Expr(sc, l.Index), v, l)
		case Nil:
			ev.Fail(l.Pos(), "assignment into nil map/slice")
		default:
			ev.Expr(sc, l.Index)
			ev.D.Op(ev, OpStore, c, []Value{v}, l)
		}
	case *ast.SelectorExpr:
		switch x := ev.Expr(sc, l.X).(type) {
		case *Struct:
			x.Fields[l.Sel.Name] = v
		default:
			ev.D.Op(ev, OpStore, x, []Value{v}, l)
		}
	case *ast.StarExpr:
		ev.store(sc, l.X, v, tok)
	default:
		ev.Fail(lhs.Pos(), "assignment target %T is not modeled", lhs)
	}
}

func (ev *Eval) execFor(sc *Scope, st *ast.ForStmt) Flow {
	sc = NewScope(sc)
	if st.Init != nil {
		ev.Exec(sc, st.Init)
	}
	cond := KnownBool(true)
	if st.Cond != nil {
		if cond = ev.Cond(sc, st.Cond); !cond.Known {
			return ev.D.Loop(ev, sc, st, nil)
		}
	}
	return ev.iterate(st, func(first bool) (bool, Flow) {
		if !first {
			// Each iteration has its own copy of the variables the init
			// statement declares (closures capture one iteration's).
			if len(sc.vars) > 0 {
				next := NewScope(sc.parent)
				for obj, c := range sc.vars {
					next.Define(obj, c.V)
				}
				sc = next
			}
			if st.Post != nil {
				ev.Exec(sc, st.Post)
			}
			if st.Cond != nil {
				if cond = ev.Cond(sc, st.Cond); !cond.Known {
					ev.Fail(st.Cond.Pos(), "loop condition became undecidable")
				}
			}
		}
		if !cond.V {
			return false, FlowNormal
		}
		return true, ev.Exec(sc, st.Body)
	})
}

// iterate runs body until it reports done, handling break/continue/return
// and folding the domain marks recorded at breaks into the continuation.
func (ev *Eval) iterate(at ast.Node, body func(first bool) (bool, Flow)) Flow {
	l := &Loop{}
	ev.PushLoop(l)
	for first := true; ; first = false {
		ev.step(at.Pos())
		more, f := body(first)
		if !more || f == FlowBreak {
			break
		}
		if f == FlowReturn {
			ev.PopLoop()
			return FlowReturn
		}
	}
	ev.PopLoop()
	ev.D.JoinBreaks(l.Breaks)
	return FlowNormal
}

func (ev *Eval) execRange(sc *Scope, st *ast.RangeStmt) Flow {
	x := ev.Expr(sc, st.X)
	var keys, vals []Value
	switch xs := x.(type) {
	case *Slice:
		for i, e := range xs.Elems {
			keys, vals = append(keys, KnownInt(int64(i))), append(vals, e)
		}
	case *Map:
		for _, k := range xs.keys {
			keys, vals = append(keys, xs.vals[k].key), append(vals, xs.vals[k].val)
		}
	case Int:
		n, ok := xs.Const()
		if !ok {
			return ev.D.Loop(ev, sc, st, x)
		}
		for i := int64(0); i < n; i++ {
			keys, vals = append(keys, KnownInt(i)), append(vals, nil)
		}
	case Nil:
	default:
		return ev.D.Loop(ev, sc, st, x)
	}
	return ev.RangeItems(sc, st, keys, vals)
}

// RangeItems runs a range loop's body once per (key, value) item, each
// iteration in a fresh scope.
func (ev *Eval) RangeItems(sc *Scope, st *ast.RangeStmt, keys, vals []Value) Flow {
	i := 0
	return ev.iterate(st, func(bool) (bool, Flow) {
		if i >= len(keys) {
			return false, FlowNormal
		}
		it := NewScope(sc)
		ev.BindRange(it, st, keys[i], vals[i])
		i++
		return true, ev.Exec(it, st.Body)
	})
}

// BindRange binds (or assigns) a range statement's iteration variables.
func (ev *Eval) BindRange(sc *Scope, st *ast.RangeStmt, k, v Value) {
	if st.Key != nil {
		ev.store(sc, st.Key, k, st.Tok)
	}
	if st.Value != nil {
		ev.store(sc, st.Value, v, st.Tok)
	}
}

func (ev *Eval) execSwitch(sc *Scope, st *ast.SwitchStmt) Flow {
	sc = NewScope(sc)
	if st.Init != nil {
		ev.Exec(sc, st.Init)
	}
	var tag Value
	if st.Tag != nil {
		tag = ev.Expr(sc, st.Tag)
	}
	var deflt *ast.CaseClause
	for _, c := range st.Body.List {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			deflt = cc
			continue
		}
		for _, e := range cc.List {
			var b Bool
			if st.Tag != nil {
				b = ev.compare(token.EQL, tag, ev.Expr(sc, e), e)
			} else {
				b = ev.Cond(sc, e)
			}
			if !b.Known {
				ev.Fail(e.Pos(), "undecidable switch case")
			}
			if b.V {
				return ev.caseBody(sc, cc)
			}
		}
	}
	if deflt != nil {
		return ev.caseBody(sc, deflt)
	}
	return FlowNormal
}

// caseBody runs a selected case under a switch frame, so a bare break
// exits the switch, not an enclosing loop.
func (ev *Eval) caseBody(sc *Scope, cc *ast.CaseClause) Flow {
	ev.PushLoop(&Loop{sw: true})
	f := ev.execList(cc.Body, NewScope(sc))
	ev.PopLoop()
	if f == FlowBreak {
		return FlowNormal
	}
	return f
}

// ---------------------------------------------------------------------------
// Expressions.

// Expr evaluates e to exactly one value.
func (ev *Eval) Expr(sc *Scope, e ast.Expr) Value {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok && !ev.folded(call) {
		vs := ev.multi(sc, call)
		if len(vs) != 1 {
			ev.Fail(e.Pos(), "expected a single value, got %d", len(vs))
		}
		return vs[0]
	}
	ev.step(e.Pos())
	if tv, ok := ev.pkg.Info.Types[e]; ok {
		if tv.Value != nil {
			return ev.constant(tv.Value, e.Pos())
		}
		if tv.IsNil() {
			return Nil{}
		}
	}
	if p, ok := e.(*ast.ParenExpr); ok {
		return ev.Expr(sc, p.X)
	}
	return ev.expr(sc, e)
}

// folded reports a call the type checker folded to a constant
// (len of an array, unsafe.Sizeof, a constant conversion).
func (ev *Eval) folded(call *ast.CallExpr) bool {
	tv, ok := ev.pkg.Info.Types[call]
	return ok && tv.Value != nil
}

// multi evaluates an expression that may produce a tuple (calls).
func (ev *Eval) multi(sc *Scope, e ast.Expr) []Value {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok && !ev.folded(call) {
		ev.step(e.Pos())
		return ev.call(sc, call)
	}
	return []Value{ev.Expr(sc, e)}
}

func (ev *Eval) constant(v constant.Value, pos token.Pos) Value {
	switch v.Kind() {
	case constant.Int:
		if c, ok := constant.Int64Val(v); ok {
			return KnownInt(c)
		}
		ev.Fail(pos, "constant overflows int64")
	case constant.String:
		return KnownStr(constant.StringVal(v))
	case constant.Bool:
		return KnownBool(constant.BoolVal(v))
	case constant.Float:
		f, _ := constant.Float64Val(v)
		return Float{Known: true, V: f}
	}
	ev.Fail(pos, "constant kind %v is not modeled", v.Kind())
	return nil
}

func (ev *Eval) expr(sc *Scope, e ast.Expr) Value {
	info := ev.pkg.Info
	switch x := e.(type) {
	case *ast.Ident:
		obj := ev.Object(x)
		if c := sc.Lookup(obj); c != nil {
			return c.V
		}
		if fn, ok := obj.(*types.Func); ok {
			return Func{Fn: fn}
		}
		ev.Fail(x.Pos(), "unbound identifier %s (package-level state is not modeled)", x.Name)
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[x.Sel].(*types.Func); ok {
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					return Func{Fn: fn}
				}
			}
			return Func{Fn: fn, Recv: ev.Expr(sc, x.X)} // method value
		}
		if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
			if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
				ev.Fail(x.Pos(), "package-level reference %s.%s is not modeled", id.Name, x.Sel.Name)
			}
		}
		switch base := ev.Expr(sc, x.X).(type) {
		case *Struct:
			if v, ok := base.Fields[x.Sel.Name]; ok {
				return v
			}
			v := ev.Zero(x.Pos(), ev.TypeOf(x))
			base.Fields[x.Sel.Name] = v
			return v
		default:
			return ev.D.Op(ev, OpField, base, nil, x)
		}
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND, token.LOR, token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
			return ev.Cond(sc, x)
		}
		return ev.binary(x.Op, ev.Expr(sc, x.X), ev.Expr(sc, x.Y), x)
	case *ast.UnaryExpr:
		switch x.Op {
		case token.NOT:
			b := ev.Cond(sc, x.X)
			return Bool{Known: b.Known, V: !b.V}
		case token.AND, token.ADD:
			return ev.Expr(sc, x.X)
		}
		return ev.unary(x.Op, ev.Expr(sc, x.X), x)
	case *ast.StarExpr:
		return ev.Expr(sc, x.X) // structs already have reference semantics
	case *ast.TypeAssertExpr:
		return ev.Expr(sc, x.X)
	case *ast.IndexExpr:
		return ev.index(ev.Expr(sc, x.X), ev.Expr(sc, x.Index), x)
	case *ast.SliceExpr:
		return ev.slice(sc, x)
	case *ast.CompositeLit:
		return ev.composite(sc, x)
	case *ast.FuncLit:
		return &Closure{Lit: x, Env: sc, Pkg: ev.pkg}
	}
	ev.Fail(e.Pos(), "expression %T is not modeled", e)
	return nil
}

// Cond evaluates a boolean condition with three-valued short-circuit
// logic; the domain may pre-empt a comparison.
func (ev *Eval) Cond(sc *Scope, e ast.Expr) Bool {
	ev.step(e.Pos())
	if tv, ok := ev.pkg.Info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.Bool {
		return KnownBool(constant.BoolVal(tv.Value))
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			b := ev.Cond(sc, x.X)
			return Bool{Known: b.Known, V: !b.V}
		}
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND, token.LOR:
			short := x.Op == token.LOR // the value that decides alone
			l := ev.Cond(sc, x.X)
			if l.Known && l.V == short {
				return l
			}
			r := ev.Cond(sc, x.Y)
			if l.Known || (r.Known && r.V == short) {
				return r
			}
			return Bool{}
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
			if b, ok := ev.D.Cond(ev, sc, x); ok {
				return b
			}
			return ev.compare(x.Op, ev.Expr(sc, x.X), ev.Expr(sc, x.Y), x)
		}
	}
	switch v := ev.Expr(sc, e).(type) {
	case Bool:
		return v
	default:
		if !ev.isDomain(v) {
			ev.Fail(e.Pos(), "condition is %T, not a bool", v)
		}
	}
	return Bool{}
}

// compare decides a comparison where the operands allow it.
func (ev *Eval) compare(op token.Token, l, r Value, e ast.Expr) Bool {
	switch a := l.(type) {
	case Int:
		switch b := r.(type) {
		case Int:
			return compareInts(op, a, b)
		case Float:
			return compareFloats(op, toFloat(a), b)
		}
	case Float:
		switch b := r.(type) {
		case Float:
			return compareFloats(op, a, b)
		case Int:
			return compareFloats(op, a, toFloat(b))
		}
	case Str:
		if b, ok := r.(Str); ok {
			if !a.Known || !b.Known {
				return Bool{}
			}
			c := strings.Compare(a.V, b.V)
			return KnownBool(cmpHolds(op, int64(c)))
		}
	case Bool:
		if b, ok := r.(Bool); ok {
			if !a.Known || !b.Known {
				return Bool{}
			}
			return KnownBool((a.V == b.V) == (op == token.EQL))
		}
	}
	if op == token.EQL || op == token.NEQ {
		if eq, ok := ev.identical(l, r); ok {
			return KnownBool(eq == (op == token.EQL))
		}
	}
	if ev.isDomain(l) || ev.isDomain(r) {
		if b, ok := ev.D.Op(ev, op, l, []Value{r}, e).(Bool); ok {
			return b
		}
	}
	return Bool{}
}

// identical decides == between shared reference values and nil.
func (ev *Eval) identical(l, r Value) (eq, known bool) {
	if _, ok := r.(Nil); ok {
		l, r = r, l
	}
	if _, ok := l.(Nil); ok {
		switch r.(type) {
		case Nil:
			return true, true
		case Err, *Slice, *Map, *Struct, *Closure, Func, Machine:
			return false, true
		}
		return false, false
	}
	switch a := l.(type) {
	case *Struct:
		if b, ok := r.(*Struct); ok {
			return a == b, true
		}
	}
	return false, false
}

func (ev *Eval) isDomain(v Value) bool {
	switch v.(type) {
	case Int, Float, Bool, Str, Nil, Err, *Slice, *Map, *Struct, *Closure, Func, Machine:
		return false
	}
	return true
}

func cmpHolds(op token.Token, c int64) bool {
	switch op {
	case token.EQL:
		return c == 0
	case token.NEQ:
		return c != 0
	case token.LSS:
		return c < 0
	case token.LEQ:
		return c <= 0
	case token.GTR:
		return c > 0
	}
	return c >= 0
}

func toFloat(i Int) Float {
	c, ok := i.Const()
	return Float{Known: ok, V: float64(c)}
}

func compareFloats(op token.Token, a, b Float) Bool {
	if !a.Known || !b.Known {
		return Bool{}
	}
	c := int64(0)
	if a.V < b.V {
		c = -1
	} else if a.V > b.V {
		c = 1
	}
	return KnownBool(cmpHolds(op, c))
}

// compareInts decides an integer comparison: exactly for constants, and
// for symbolic values by the ≥1 coefficient test (all parameters are
// counts).
func compareInts(op token.Token, a, b Int) Bool {
	if ac, ok := a.Const(); ok {
		if bc, ok := b.Const(); ok {
			c := int64(0)
			if ac < bc {
				c = -1
			} else if ac > bc {
				c = 1
			}
			return KnownBool(cmpHolds(op, c))
		}
	}
	ae, aok := a.Expr()
	be, bok := b.Expr()
	if !aok || !bok {
		return Bool{}
	}
	one := SymConst(1)
	lt := GEMin1(be, ae.Add(one)) // a < b
	ge := GEMin1(ae, be)          // a ≥ b
	gt := GEMin1(ae, be.Add(one)) // a > b
	le := GEMin1(be, ae)          // a ≤ b
	decide := func(yes, no bool) Bool {
		switch {
		case yes:
			return KnownBool(true)
		case no:
			return KnownBool(false)
		}
		return Bool{}
	}
	switch op {
	case token.LSS:
		return decide(lt, ge)
	case token.GEQ:
		return decide(ge, lt)
	case token.GTR:
		return decide(gt, le)
	case token.LEQ:
		return decide(le, gt)
	case token.EQL:
		return decide(ae.Equal(be), gt || lt)
	case token.NEQ:
		return decide(gt || lt, ae.Equal(be))
	}
	return Bool{}
}

// binary evaluates an arithmetic operator.
func (ev *Eval) binary(op token.Token, l, r Value, e ast.Expr) Value {
	switch a := l.(type) {
	case Int:
		if b, ok := r.(Int); ok {
			return ev.intOp(op, a, b, e.Pos())
		}
		if b, ok := r.(Float); ok {
			return ev.floatOp(op, toFloat(a), b, e)
		}
	case Float:
		switch b := r.(type) {
		case Float:
			return ev.floatOp(op, a, b, e)
		case Int:
			return ev.floatOp(op, a, toFloat(b), e)
		}
	case Str:
		if b, ok := r.(Str); ok && op == token.ADD {
			if a.Known && b.Known {
				return KnownStr(a.V + b.V)
			}
			return Str{}
		}
	}
	if ev.isDomain(l) || ev.isDomain(r) {
		return ev.D.Op(ev, op, l, []Value{r}, e)
	}
	ev.Fail(e.Pos(), "operator %s on %T and %T is not modeled", op, l, r)
	return nil
}

func (ev *Eval) intOp(op token.Token, a, b Int, pos token.Pos) Value {
	ac, aok := a.Const()
	bc, bok := b.Const()
	if aok && bok {
		switch op {
		case token.ADD:
			return KnownInt(ac + bc)
		case token.SUB:
			return KnownInt(ac - bc)
		case token.MUL:
			return KnownInt(ac * bc)
		case token.QUO, token.REM:
			if bc == 0 {
				ev.Fail(pos, "integer division by zero")
			}
			if op == token.QUO {
				return KnownInt(ac / bc)
			}
			return KnownInt(ac % bc)
		case token.SHL:
			return KnownInt(ac << uint(bc))
		case token.SHR:
			return KnownInt(ac >> uint(bc))
		case token.AND:
			return KnownInt(ac & bc)
		case token.OR:
			return KnownInt(ac | bc)
		case token.XOR:
			return KnownInt(ac ^ bc)
		case token.AND_NOT:
			return KnownInt(ac &^ bc)
		}
		ev.Fail(pos, "integer operator %s is not modeled", op)
	}
	ae, aok := a.Expr()
	be, bok := b.Expr()
	if !aok || !bok {
		return Int{}
	}
	switch op {
	case token.ADD:
		return SymInt(ae.Add(be))
	case token.SUB:
		return SymInt(ae.Sub(be))
	case token.MUL:
		return SymInt(ae.Mul(be))
	case token.SHL:
		if bok && bc >= 0 && bc < 32 {
			return SymInt(ae.Scale(1 << uint(bc)))
		}
	case token.QUO:
		// Exact symbolic division: the protocol's size arithmetic divides
		// exactly by construction.
		if bok && bc > 0 {
			return SymInt(SymCeilDiv(ae, be))
		}
	}
	return Int{}
}

func (ev *Eval) floatOp(op token.Token, a, b Float, e ast.Expr) Value {
	if !a.Known || !b.Known {
		return Float{}
	}
	switch op {
	case token.ADD:
		return Float{Known: true, V: a.V + b.V}
	case token.SUB:
		return Float{Known: true, V: a.V - b.V}
	case token.MUL:
		return Float{Known: true, V: a.V * b.V}
	case token.QUO:
		return Float{Known: true, V: a.V / b.V}
	}
	ev.Fail(e.Pos(), "float operator %s is not modeled", op)
	return nil
}

func (ev *Eval) unary(op token.Token, v Value, e ast.Expr) Value {
	switch x := v.(type) {
	case Int:
		if op == token.SUB {
			return ev.intOp(token.SUB, KnownInt(0), x, e.Pos())
		}
		if c, ok := x.Const(); ok && op == token.XOR {
			return KnownInt(^c)
		}
		return Int{}
	case Float:
		if op == token.SUB {
			return Float{Known: x.Known, V: -x.V}
		}
	}
	return ev.D.Op(ev, op, v, nil, e)
}

// mapKey renders a map key; only concrete keys are modeled.
func (ev *Eval) mapKey(k Value, e ast.Expr) string {
	switch x := k.(type) {
	case Int:
		if c, ok := x.Const(); ok {
			return fmt.Sprintf("i:%d", c)
		}
	case Str:
		if x.Known {
			return "s:" + x.V
		}
	case Bool:
		if x.Known {
			return fmt.Sprintf("b:%v", x.V)
		}
	case *Slice: // array keys like [2]int
		parts := make([]string, len(x.Elems))
		for i, el := range x.Elems {
			parts[i] = ev.mapKey(el, e)
		}
		return "[" + strings.Join(parts, ",") + "]"
	}
	ev.Fail(e.Pos(), "map key %T is not concrete", k)
	return ""
}

func (ev *Eval) mapGet(m *Map, k Value, e ast.Expr) (Value, bool) {
	ent, ok := m.vals[ev.mapKey(k, e)]
	return ent.val, ok
}

func (ev *Eval) mapSet(m *Map, k, v Value, e ast.Expr) {
	s := ev.mapKey(k, e)
	if _, ok := m.vals[s]; !ok {
		m.keys = append(m.keys, s)
	}
	m.vals[s] = mapEntry{key: k, val: v}
}

func (ev *Eval) index(x, idx Value, e *ast.IndexExpr) Value {
	switch c := x.(type) {
	case *Slice:
		i, ok := ConstOf(idx)
		if !ok {
			return ev.D.Op(ev, OpIndex, c, []Value{idx}, e)
		}
		if i < 0 || int(i) >= len(c.Elems) {
			ev.Fail(e.Pos(), "index %d out of range (len %d)", i, len(c.Elems))
		}
		return c.Elems[i]
	case *Map:
		if v, ok := ev.mapGet(c, idx, e); ok {
			return v
		}
		return ev.Zero(e.Pos(), ev.TypeOf(e))
	case Nil:
		if _, isMap := ev.TypeOf(e.X).Underlying().(*types.Map); isMap {
			return ev.Zero(e.Pos(), ev.TypeOf(e))
		}
		ev.Fail(e.Pos(), "index into nil slice")
	}
	return ev.D.Op(ev, OpIndex, x, []Value{idx}, e)
}

func (ev *Eval) slice(sc *Scope, x *ast.SliceExpr) Value {
	base := ev.Expr(sc, x.X)
	lo, hi := Value(KnownInt(0)), Value(nil)
	if x.Low != nil {
		lo = ev.Expr(sc, x.Low)
	}
	if x.High != nil {
		hi = ev.Expr(sc, x.High)
	}
	s, ok := base.(*Slice)
	if !ok {
		return ev.D.Op(ev, OpSlice, base, []Value{lo, hi}, x)
	}
	l, lok := ConstOf(lo)
	h, hok := int64(len(s.Elems)), true
	if hi != nil {
		h, hok = ConstOf(hi)
	}
	if !lok || !hok || l < 0 || h < l || int(h) > len(s.Elems) {
		ev.Fail(x.Pos(), "slice bounds are not concrete or out of range (len %d)", len(s.Elems))
	}
	return NewSlice(s.Elems[l:h:h])
}

// IsLimbVector reports limb-vector types ([]Int, machine.Ints: any slice
// whose element is a named type "Int"), which the domain may measure.
func IsLimbVector(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	return ok && NamedTypeName(s.Elem()) == "Int"
}

func (ev *Eval) composite(sc *Scope, x *ast.CompositeLit) Value {
	t := ev.TypeOf(x)
	switch u := t.Underlying().(type) {
	case *types.Struct:
		s := ev.newStruct(t)
		for i, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				s.Fields[kv.Key.(*ast.Ident).Name] = ev.Expr(sc, kv.Value)
				continue
			}
			s.Fields[u.Field(i).Name()] = ev.Expr(sc, el)
		}
		return s
	case *types.Slice, *types.Array:
		var elems []Value
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				i, ok := ConstOf(ev.Expr(sc, kv.Key))
				if !ok {
					ev.Fail(kv.Pos(), "non-concrete array index")
				}
				for int(i) >= len(elems) {
					elems = append(elems, nil)
				}
				elems[i] = ev.Expr(sc, kv.Value)
				continue
			}
			elems = append(elems, ev.Expr(sc, el))
		}
		if IsLimbVector(t) {
			if v, ok := ev.D.Vector(KnownInt(int64(len(elems)))); ok {
				return v
			}
		}
		var et types.Type
		if arr, ok := u.(*types.Array); ok {
			et = arr.Elem()
			for int64(len(elems)) < arr.Len() {
				elems = append(elems, nil)
			}
		} else {
			et = u.(*types.Slice).Elem()
		}
		for i, el := range elems {
			if el == nil {
				elems[i] = ev.Zero(x.Pos(), et)
			}
		}
		return NewSlice(elems)
	case *types.Map:
		m := NewMap()
		for _, el := range x.Elts {
			kv := el.(*ast.KeyValueExpr)
			ev.mapSet(m, ev.Expr(sc, kv.Key), ev.Expr(sc, kv.Value), kv)
		}
		return m
	}
	ev.Fail(x.Pos(), "composite literal of %v is not modeled", t)
	return nil
}

// namedTypePkgPath reports the package path behind a (possibly pointer-to)
// named type; unnamed and universe types yield "".
func namedTypePkgPath(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil {
		return n.Obj().Pkg().Path()
	}
	return ""
}

func (ev *Eval) newStruct(t types.Type) *Struct {
	return &Struct{Type: NamedTypeName(t), PkgPath: namedTypePkgPath(t), Fields: map[string]Value{}}
}

// Zero is the zero value of t.
func (ev *Eval) Zero(pos token.Pos, t types.Type) Value {
	if t == nil {
		return Nil{}
	}
	if v, ok := ev.D.Zero(t); ok {
		return v
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		info := u.Info()
		switch {
		case info&types.IsBoolean != 0:
			return KnownBool(false)
		case info&types.IsInteger != 0:
			return KnownInt(0)
		case info&types.IsString != 0:
			return KnownStr("")
		case info&types.IsFloat != 0:
			return Float{Known: true}
		}
	case *types.Slice, *types.Map, *types.Pointer, *types.Signature, *types.Chan, *types.Interface:
		return Nil{}
	case *types.Struct:
		return ev.newStruct(t)
	case *types.Array:
		elems := make([]Value, u.Len())
		for i := range elems {
			elems[i] = ev.Zero(pos, u.Elem())
		}
		return NewSlice(elems)
	}
	ev.Fail(pos, "zero value of %v is not modeled", t)
	return nil
}

func (ev *Eval) convert(v Value, t types.Type, pos token.Pos) Value {
	if b, ok := t.Underlying().(*types.Basic); ok {
		switch x := v.(type) {
		case Int:
			if b.Info()&types.IsFloat != 0 {
				return toFloat(x)
			}
		case Float:
			if b.Info()&types.IsInteger != 0 {
				return Int{Known: x.Known, C: int64(x.V)}
			}
		}
	}
	return v // named-type re-tags: machine.Ints(v), Group(ids), int64(c)
}

// ---------------------------------------------------------------------------
// Builtins.

func (ev *Eval) builtin(sc *Scope, call *ast.CallExpr, name string) []Value {
	pos := call.Pos()
	switch name {
	case "len", "cap":
		switch c := ev.Expr(sc, call.Args[0]).(type) {
		case *Slice:
			return []Value{KnownInt(int64(len(c.Elems)))}
		case *Map:
			return []Value{KnownInt(int64(len(c.keys)))}
		case Str:
			return []Value{Int{Known: c.Known, C: int64(len(c.V))}}
		case Nil:
			return []Value{KnownInt(0)}
		default:
			return []Value{ev.D.Op(ev, "len", c, nil, call)}
		}
	case "append":
		args := ev.args(sc, call)
		return []Value{ev.appendTo(args[0], args[1:], call.Ellipsis.IsValid(), call)}
	case "make":
		t := ev.TypeOf(call.Args[0])
		n := Value(KnownInt(0))
		if len(call.Args) > 1 {
			n = ev.Expr(sc, call.Args[1])
		}
		switch u := t.Underlying().(type) {
		case *types.Slice:
			if IsLimbVector(t) {
				if v, ok := ev.D.Vector(IntOf(n)); ok {
					return []Value{v}
				}
			}
			c, ok := ConstOf(n)
			if !ok || c < 0 || c > 1<<20 {
				ev.Fail(pos, "make with a non-concrete or out-of-range length")
			}
			elems := make([]Value, c)
			for i := range elems {
				elems[i] = ev.Zero(pos, u.Elem())
			}
			return []Value{NewSlice(elems)}
		case *types.Map:
			return []Value{NewMap()}
		}
		ev.Fail(pos, "make of %v is not modeled", t)
	case "copy":
		dst, okD := ev.Expr(sc, call.Args[0]).(*Slice)
		src, okS := ev.Expr(sc, call.Args[1]).(*Slice)
		if !okD || !okS {
			return []Value{Int{}}
		}
		return []Value{KnownInt(int64(copy(dst.Elems, src.Elems)))}
	case "delete":
		m, ok := ev.Expr(sc, call.Args[0]).(*Map)
		k := ev.Expr(sc, call.Args[1])
		if !ok {
			return nil
		}
		s := ev.mapKey(k, call)
		if _, present := m.vals[s]; present {
			delete(m.vals, s)
			for i, key := range m.keys {
				if key == s {
					m.keys = append(m.keys[:i], m.keys[i+1:]...)
					break
				}
			}
		}
		return nil
	case "min", "max":
		args := ev.args(sc, call)
		best, ok := ConstOf(args[0])
		for _, a := range args[1:] {
			c, cok := ConstOf(a)
			ok = ok && cok
			if (name == "min") == (c < best) {
				best = c
			}
		}
		if !ok {
			return []Value{Int{}}
		}
		return []Value{KnownInt(best)}
	case "new":
		return []Value{ev.Zero(pos, ev.TypeOf(call.Args[0]))}
	case "panic":
		ev.Fail(pos, "panic site reached")
	}
	ev.Fail(pos, "builtin %s is not modeled", name)
	return nil
}

// appendTo is the append builtin: shared slices grow by their elements,
// domain containers (limb vectors) by the domain's measure.
func (ev *Eval) appendTo(base Value, args []Value, spread bool, e ast.Expr) Value {
	var rest []Value
	if spread {
		switch s := args[len(args)-1].(type) {
		case *Slice:
			rest = s.Elems
		case Nil:
		default:
			return ev.D.Op(ev, "append", base, args, e)
		}
	} else {
		rest = args
	}
	switch b := base.(type) {
	case *Slice:
		return NewSlice(append(append(make([]Value, 0, len(b.Elems)+len(rest)), b.Elems...), rest...))
	case Nil:
		if IsLimbVector(ev.TypeOf(e)) {
			if v, ok := ev.D.Vector(KnownInt(0)); ok {
				return ev.appendTo(v, args, spread, e)
			}
		}
		return NewSlice(append([]Value(nil), rest...))
	}
	return ev.D.Op(ev, "append", base, args, e)
}

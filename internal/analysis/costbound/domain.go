package costbound

// domain.go is costbound's evaluator domain: symbolic cost. The shared
// evaluator (framework/eval.go) executes the real collective / parallel /
// ftparallel sources; this domain adds the cost model on top.
//
// Values carry shapes and counts, never digit values. Limb vectors are
// measured by their word count (the unit-word model: every entry occupies
// exactly one machine word, which is what machine.Ints.Words() charges for
// small entries), payload scalars by their word measure, and processors by
// their rank.
//
// Symbolic mode derives closed forms for the binomial-tree collectives:
// the group size g and payload word count W stay symbolic, rank-dependent
// branches join component-wise (max over participants, exactly the
// per-counter critical-path semantics of machine.Report), and the two loop
// shapes of the protocol — doubling loops (⌈log₂ n⌉ trips) and linear
// scans — contribute trip × per-iteration cost symbolically. A loop body
// that can exit early (Reduce's send-and-retire) charges
// trip × (non-exiting per-iteration cost) + the exiting path's one-shot
// cost, which is sound and component-wise tight for these protocols.
//
// Concrete mode evaluates the multiplication tiers per rank over a finite
// world: every rank-dependent branch decides, loops iterate, and recursion
// terminates. Message sizes cross rank boundaries through a send log (see
// worlds.go). Data-dependent branches (IsZero skips, interpolation-weight
// tests) evaluate both arms and join by max, so derived work is the worst
// case the paper bounds.
//
// The boundary verbs are cost contracts, the model's axiom set: Send
// charges its payload words to S and one message to L, Recv charges R,
// Work charges F, Barrier charges the binomial-tree dissemination —
// exactly what machine.Proc charges at runtime, which the crosscheck
// suite pins. Contracts key methods on the receiver's type name, so
// fixtures declaring miniature Proc/Int stand-ins follow the same rules.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/framework"
)

type Value = framework.Value

// costVec is the four-counter cost state, matching machine.Stats: F
// (word operations), S (sent words), R (received words), L (messages).
type costVec struct {
	F, S, R, L framework.SymExpr
}

func (c costVec) add(d costVec) costVec {
	return costVec{c.F.Add(d.F), c.S.Add(d.S), c.R.Add(d.R), c.L.Add(d.L)}
}

func (c costVec) sub(d costVec) costVec {
	return costVec{c.F.Sub(d.F), c.S.Sub(d.S), c.R.Sub(d.R), c.L.Sub(d.L)}
}

func (c costVec) scale(trip framework.SymExpr) costVec {
	return costVec{c.F.Mul(trip), c.S.Mul(trip), c.R.Mul(trip), c.L.Mul(trip)}
}

func (c costVec) maxWith(d costVec) costVec {
	return costVec{
		framework.SymMaxMin1(c.F, d.F),
		framework.SymMaxMin1(c.S, d.S),
		framework.SymMaxMin1(c.R, d.R),
		framework.SymMaxMin1(c.L, d.L),
	}
}

func (c costVec) String() string {
	return fmt.Sprintf("F=%s S=%s R=%s L=%s", c.F, c.S, c.R, c.L)
}

func (c costVec) equal(d costVec) bool {
	return c.F.Equal(d.F) && c.S.Equal(d.S) && c.R.Equal(d.R) && c.L.Equal(d.L)
}

// eval evaluates all four counters under env.
func (c costVec) eval(env map[string]int64) (f, s, r, l int64, err error) {
	if f, err = c.F.Eval(env); err != nil {
		return
	}
	if s, err = c.S.Eval(env); err != nil {
		return
	}
	if r, err = c.R.Eval(env); err != nil {
		return
	}
	l, err = c.L.Eval(env)
	return
}

// The domain's leaf values.
type (
	vec      struct{ w framework.Int } // limb vector, measured in words
	big      struct{ w framework.Int } // payload scalar with a word measure
	proc     struct{ rank int64 }      // endpoint; rank < 0: symbolic participant
	group    struct{ n framework.SymExpr }
	opaque   struct{} // inert unmodeled value (never nil)
	maybeNil struct{} // join of nil and non-nil: nilness undecidable
)

func unitBig() big { return big{framework.KnownInt(1)} }

// deriver is the domain state of one derivation.
type deriver struct {
	symbolic bool
	spmdW    framework.SymExpr // symbolic payload measure (SPMD-uniform)

	// Concrete mode.
	rank     int64
	machineP int64
	prevLog  map[string][]int64 // send log from the previous pass
	curLog   map[string][]int64
	recvCur  map[string]int // per-rank read cursors into prevLog
	logMiss  bool           // some recv found no matching send yet

	cost      costVec
	joinDepth int // >0 while evaluating an undecided branch arm
}

func (d *deriver) charge(c costVec) { d.cost = d.cost.add(c) }

func (d *deriver) Zero(types.Type) (Value, bool)        { return nil, false }
func (d *deriver) Scalar() Value                        { return unitBig() }
func (d *deriver) Vector(n framework.Int) (Value, bool) { return vec{n}, true }
func (d *deriver) Opaque(types.Type) Value              { return opaque{} }
func (d *deriver) Mark() any                            { return d.cost }

func (d *deriver) Modeled(ev *framework.Eval, fn *types.Func, _ Value, args []Value, call *ast.CallExpr) []Value {
	return ev.ModeledResults(fn, args, call)
}

// Finish closes a frame: its cost is the component-wise maximum over its
// return paths (critical-path semantics), its results the join of the
// returned tuples.
func (d *deriver) Finish(ev *framework.Eval, exits []framework.Exit, pos token.Pos) []Value {
	cost := exits[0].Mark.(costVec)
	vals := append([]Value(nil), exits[0].Vals...)
	for _, e := range exits[1:] {
		cost = cost.maxWith(e.Mark.(costVec))
		if len(e.Vals) != len(vals) {
			ev.Fail(pos, "inconsistent return arity")
		}
		for i := range vals {
			vals[i] = joinVal(vals[i], e.Vals[i])
		}
	}
	d.cost = cost
	return vals
}

func (d *deriver) JoinBreaks(marks []any) {
	for _, m := range marks {
		d.cost = d.cost.maxWith(m.(costVec))
	}
}

// kindOf groups values for joins and widening by their dynamic type.
func kindOf(v Value) int {
	switch v.(type) {
	case framework.Int:
		return 1
	case framework.Bool:
		return 2
	case framework.Str:
		return 3
	case framework.Float:
		return 4
	case vec:
		return 5
	case big:
		return 6
	case proc:
		return 7
	case framework.Nil:
		return 8
	case maybeNil:
		return 9
	case *framework.Struct:
		return 10
	case *framework.Slice:
		return 11
	}
	return 0 // every other kind joins to opaque
}

// joinVal merges the values a variable holds on the two sides of an
// undecided branch. Counts join to their maximum (every count feeds a
// worst-case charge); everything else that differs degrades to unknown of
// its kind, or to opaque across kinds.
func joinVal(a, b Value) Value {
	if kindOf(a) == kindOf(b) {
		switch x := a.(type) {
		case framework.Int:
			y := b.(framework.Int)
			xe, xok := x.Expr()
			ye, yok := y.Expr()
			if !xok || !yok {
				return framework.Int{}
			}
			if xe.Equal(ye) {
				return x
			}
			return framework.SymInt(framework.SymMax(xe, ye))
		case framework.Bool, framework.Str, framework.Float:
			if x == b && known(x) {
				return x
			}
			return degrade(x)
		case vec:
			return vec{joinMeasure(x.w, b.(vec).w)}
		case big:
			return big{joinMeasure(x.w, b.(big).w)}
		case proc:
			if x == b {
				return x
			}
			return proc{rank: -1}
		case framework.Nil, maybeNil:
			return a
		case *framework.Struct:
			if x == b {
				return x
			}
		case *framework.Slice:
			y := b.(*framework.Slice)
			if len(x.Elems) == len(y.Elems) {
				out := make([]Value, len(x.Elems))
				for i := range out {
					out[i] = joinVal(x.Elems[i], y.Elems[i])
				}
				return framework.NewSlice(out)
			}
		}
		return opaque{}
	}
	// A nil error joined with a non-nil one keeps its nilness undecidable:
	// deciding `err != nil` either way after such a join would silently
	// drop one arm's cost.
	for _, v := range []Value{a, b} {
		switch v.(type) {
		case framework.Nil, maybeNil:
			return maybeNil{}
		}
	}
	return opaque{}
}

func known(v Value) bool {
	switch x := v.(type) {
	case framework.Bool:
		return x.Known
	case framework.Str:
		return x.Known
	case framework.Float:
		return x.Known
	}
	return false
}

func stable(a, b framework.Int) bool {
	ae, aok := a.Expr()
	be, bok := b.Expr()
	return aok && bok && ae.Equal(be)
}

func joinMeasure(a, b framework.Int) framework.Int {
	ae, aok := a.Expr()
	be, bok := b.Expr()
	switch {
	case !aok || !bok:
		return framework.Int{}
	case ae.Equal(be):
		return a
	}
	return framework.SymInt(framework.SymMaxMin1(ae, be))
}

// degrade maps a value to its widened (unknown) form.
func degrade(v Value) Value {
	switch v.(type) {
	case framework.Int:
		return framework.Int{}
	case framework.Bool:
		return framework.Bool{}
	case framework.Str:
		return framework.Str{}
	case framework.Float:
		return framework.Float{}
	case vec:
		return vec{}
	case big:
		return big{}
	}
	return opaque{}
}

// ---------------------------------------------------------------------------
// Operations on domain values.

func (d *deriver) Op(ev *framework.Eval, op any, x Value, args []Value, e ast.Expr) Value {
	switch op {
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		return compareVals(op.(token.Token), x, args[0])
	case framework.OpField:
		if _, ok := x.(opaque); ok && len(args) == 0 {
			return opaque{}
		}
	case framework.OpStore:
		switch x.(type) {
		case vec, opaque:
			return nil // unit-word entries: writes don't change the measure
		}
	case framework.OpIndex:
		switch b := x.(type) {
		case vec:
			return unitBig()
		case opaque:
			// Element of an unmodeled container: unknown of the static type
			// (U()[j][m] is an unknown int64 coefficient, so `c == 0`
			// correctly forks into a worst-case join).
			return ev.ModeledResult(ev.TypeOf(e))
		case group:
			return framework.Int{} // group members are ranks
		case *framework.Slice:
			// Reading any element of a uniform slice: join of all elements.
			if len(b.Elems) > 0 {
				j := b.Elems[0]
				for _, el := range b.Elems[1:] {
					j = joinVal(j, el)
				}
				return j
			}
		}
	case framework.OpSlice:
		switch b := x.(type) {
		case vec:
			lo, lok := framework.IntOf(args[0]).Expr()
			hi, hok := b.w.Expr()
			if args[1] != nil {
				hi, hok = framework.IntOf(args[1]).Expr()
			}
			if !lok || !hok {
				ev.Fail(e.Pos(), "non-derivable slice bound")
			}
			return vec{framework.SymInt(hi.Sub(lo))}
		case opaque:
			return opaque{}
		}
	case "len":
		switch b := x.(type) {
		case vec:
			return b.w
		case group:
			return framework.SymInt(b.n)
		case opaque, maybeNil:
			return framework.Int{}
		}
	case "append":
		return d.appendTo(ev, x, args, e.(*ast.CallExpr))
	case token.SUB, token.XOR:
		if len(args) == 0 {
			return framework.Int{} // negation of opaque data
		}
		fallthrough
	default:
		if _, isTok := op.(token.Token); isTok && len(args) == 1 {
			// Opaque data arithmetic stays opaque (never feeds counts).
			if scalarish(x) || scalarish(args[0]) {
				return framework.Int{}
			}
		}
	}
	ev.Fail(e.Pos(), "%v on %s is not modeled", op, describe(x))
	return nil
}

func scalarish(v Value) bool {
	switch v.(type) {
	case big, opaque:
		return true
	}
	return false
}

// compareVals decides what a comparison with a domain operand can: nilness
// and ranks; anything data-dependent is unknown.
func compareVals(op token.Token, a, b Value) framework.Bool {
	if _, ok := a.(framework.Nil); ok {
		a, b = b, a
	}
	if _, ok := b.(framework.Nil); ok && (op == token.EQL || op == token.NEQ) {
		switch a.(type) {
		case vec, big, proc, group, opaque:
			return framework.KnownBool(op == token.NEQ)
		}
		return framework.Bool{}
	}
	if pa, ok := a.(proc); ok {
		if pb, ok := b.(proc); ok && pa.rank >= 0 && pb.rank >= 0 && (op == token.EQL || op == token.NEQ) {
			return framework.KnownBool((pa.rank == pb.rank) == (op == token.EQL))
		}
	}
	return framework.Bool{}
}

// appendTo is append on a limb vector (or a nil one of limb type) or an
// opaque container.
func (d *deriver) appendTo(ev *framework.Eval, base Value, args []Value, call *ast.CallExpr) Value {
	switch b := base.(type) {
	case opaque, maybeNil:
		return opaque{}
	case framework.Nil:
		if !framework.IsLimbVector(ev.TypeOf(call)) {
			break
		}
		base = vec{framework.KnownInt(0)}
	case vec:
	default:
		ev.Fail(call.Pos(), "append to %s", describe(b))
	}
	w, ok := base.(vec).w.Expr()
	if !ok {
		return vec{}
	}
	if !call.Ellipsis.IsValid() {
		return vec{framework.SymInt(w.Add(framework.SymConst(int64(len(args)))))}
	}
	switch s := args[len(args)-1].(type) {
	case vec:
		sw, ok := s.w.Expr()
		if !ok {
			return vec{}
		}
		return vec{framework.SymInt(w.Add(sw))}
	case framework.Nil:
		return base
	case *framework.Slice:
		return vec{framework.SymInt(w.Add(framework.SymConst(int64(len(s.Elems)))))}
	}
	return vec{}
}

func describe(v Value) string {
	switch x := v.(type) {
	case vec:
		return "vec[" + fmtInt(x.w) + "]"
	case big:
		return "big[" + fmtInt(x.w) + "w]"
	case proc:
		return fmt.Sprintf("proc(%d)", x.rank)
	case group:
		return "group(" + x.n.String() + ")"
	}
	return fmt.Sprintf("%T", v)
}

func fmtInt(i framework.Int) string {
	if e, ok := i.Expr(); ok {
		return e.String()
	}
	return "?"
}

// ---------------------------------------------------------------------------
// Control policies.

// Cond is the length-contract refinement: deciding `len(v) == N` /
// `len(v) != N` on a received vector whose length the send log has not yet
// supplied binds the length the code itself asserts (the SPMD message-size
// contract), and the check decides so the error path is dead.
func (d *deriver) Cond(ev *framework.Eval, sc *framework.Scope, x *ast.BinaryExpr) (framework.Bool, bool) {
	if x.Op != token.EQL && x.Op != token.NEQ {
		return framework.Bool{}, false
	}
	try := func(lenSide, other ast.Expr) (framework.Bool, bool) {
		call, ok := lenSide.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return framework.Bool{}, false
		}
		if fid, ok := call.Fun.(*ast.Ident); !ok || fid.Name != "len" {
			return framework.Bool{}, false
		}
		id, ok := call.Args[0].(*ast.Ident)
		if !ok {
			return framework.Bool{}, false
		}
		c := sc.Lookup(ev.Object(id))
		if c == nil {
			return framework.Bool{}, false
		}
		if v, ok := c.V.(vec); !ok || v.w.Known {
			return framework.Bool{}, false
		}
		want := framework.IntOf(ev.Expr(sc, other))
		if !want.Known {
			return framework.Bool{}, false
		}
		ev.SetCell(c, vec{want})
		return framework.KnownBool(x.Op == token.EQL), true
	}
	if b, ok := try(x.X, x.Y); ok {
		return b, true
	}
	return try(x.Y, x.X)
}

// Branch evaluates both arms of an undecided branch on the shared scope
// with trail-based rollback, joins the written values, and takes the
// component-wise cost maximum. An arm that exits (return/break) contributes
// its cost at the exit site (already recorded there); the surviving arm's
// environment wins unjoined.
func (d *deriver) Branch(ev *framework.Eval, sc *framework.Scope, st *ast.IfStmt) framework.Flow {
	d.joinDepth++
	pre := d.cost
	ev.PushTrail()
	f1 := ev.Exec(sc, st.Body)
	thenCost := d.cost
	thenVals := ev.PopTrail(true)

	d.cost = pre
	t2 := ev.PushTrail()
	f2 := ev.Exec(sc, st.Else)
	elseCost := d.cost
	elseOlds := make(map[*framework.Cell]Value, len(t2.Saved))
	for c, old := range t2.Saved {
		elseOlds[c] = old
	}
	elseVals := ev.PopTrail(false) // keep the else values for now
	d.joinDepth--

	// Folding the exiting arm's cost in here would charge its sends to
	// every later iteration of an enclosing loop.
	thenExits := f1 == framework.FlowReturn || f1 == framework.FlowBreak
	elseExits := f2 == framework.FlowReturn || f2 == framework.FlowBreak
	switch {
	case thenExits && !elseExits:
		d.cost = elseCost // the else environment is already in place
	case elseExits && !thenExits:
		d.cost = thenCost
		for c, old := range elseOlds {
			c.V = old
		}
		for c, v := range thenVals {
			c.V = v
		}
	default:
		d.cost = thenCost.maxWith(elseCost)
		if !thenExits {
			touched := map[*framework.Cell]bool{}
			for c := range thenVals {
				touched[c] = true
			}
			for c := range elseVals {
				touched[c] = true
			}
			for c := range touched {
				tv, ok := thenVals[c]
				if !ok {
					if old, had := elseOlds[c]; had {
						tv = old // the then arm left it at the pre-branch value
					} else {
						tv = c.V
					}
				}
				ev.SetCell(c, joinVal(tv, c.V))
			}
		}
	}

	switch {
	case f1 == f2:
		return f1
	case f1 == framework.FlowNormal || f2 == framework.FlowNormal,
		f1 == framework.FlowContinue || f2 == framework.FlowContinue:
		return framework.FlowNormal
	case f1 == framework.FlowBreak || f2 == framework.FlowBreak:
		return framework.FlowBreak
	}
	return framework.FlowReturn
}

// Loop derives a loop whose trip count does not decide concretely: the
// two symbolic for shapes, ranges over measured vectors and symbolic
// groups or counts.
func (d *deriver) Loop(ev *framework.Eval, sc *framework.Scope, st ast.Stmt, x Value) framework.Flow {
	if fs, ok := st.(*ast.ForStmt); ok {
		trip, ok := d.loopTrip(ev, sc, fs)
		if !ok {
			ev.Fail(fs.Pos(), "loop trip count not derivable")
		}
		return d.symbolicLoop(ev, sc, fs.Body, trip, nil)
	}
	rs := st.(*ast.RangeStmt)
	bind := func(k, v Value) func(*framework.Scope) {
		return func(it *framework.Scope) { ev.BindRange(it, rs, k, v) }
	}
	switch r := x.(type) {
	case vec:
		if c, ok := r.w.Const(); ok {
			keys := make([]Value, c)
			vals := make([]Value, c)
			for i := range keys {
				keys[i], vals[i] = framework.KnownInt(int64(i)), unitBig()
			}
			return ev.RangeItems(sc, rs, keys, vals)
		}
		if w, ok := r.w.Expr(); ok {
			return d.symbolicLoop(ev, sc, rs.Body, w, bind(framework.Int{}, unitBig()))
		}
		ev.Fail(rs.Pos(), "range over vector of unknown length")
	case framework.Int:
		if n, ok := r.Expr(); ok {
			return d.symbolicLoop(ev, sc, rs.Body, n, bind(framework.Int{}, nil))
		}
	case group:
		return d.symbolicLoop(ev, sc, rs.Body, r.n, bind(framework.Int{}, framework.Int{}))
	}
	ev.Fail(rs.Pos(), "unmodeled range over %s", describe(x))
	return framework.FlowNormal
}

// loopTrip recognizes the two symbolic loop shapes of the protocol sources:
//
//	for x := c; x < N; x <<= 1  → ⌈log₂ N⌉ trips (doubling; x starts ≥ 1)
//	for x := c; x < N; x++      → N − c trips
func (d *deriver) loopTrip(ev *framework.Eval, sc *framework.Scope, st *ast.ForStmt) (framework.SymExpr, bool) {
	cond, ok := st.Cond.(*ast.BinaryExpr)
	if !ok || cond.Op != token.LSS {
		return framework.SymExpr{}, false
	}
	condVar, ok := cond.X.(*ast.Ident)
	if !ok {
		return framework.SymExpr{}, false
	}
	bound, ok := framework.IntOf(ev.Expr(sc, cond.Y)).Expr()
	if !ok {
		return framework.SymExpr{}, false
	}
	switch post := st.Post.(type) {
	case *ast.AssignStmt:
		if id, ok := post.Lhs[0].(*ast.Ident); ok && post.Tok == token.SHL_ASSIGN && id.Name == condVar.Name {
			return framework.SymLog2Ceil(bound), true
		}
	case *ast.IncDecStmt:
		if id, ok := post.X.(*ast.Ident); ok && post.Tok == token.INC && id.Name == condVar.Name {
			init := framework.SymConst(0)
			if c := sc.Lookup(ev.Object(condVar)); c != nil {
				if init, ok = framework.IntOf(c.V).Expr(); !ok {
					return framework.SymExpr{}, false
				}
			}
			return bound.Sub(init), true
		}
	}
	return framework.SymExpr{}, false
}

// symbolicLoop charges trip × per-iteration cost. Pass 1 widens the
// environment (accumulators with a stable additive delta get their closed
// form x₀ + delta·trip; anything else written becomes unknown); pass 2
// measures the per-iteration cost on the widened environment. A path that
// exits the loop contributes trip × (non-exiting cost) + its own one-shot
// cost. perIter, when non-nil, binds a range loop's iteration variables.
func (d *deriver) symbolicLoop(ev *framework.Eval, sc *framework.Scope, body *ast.BlockStmt, trip framework.SymExpr, perIter func(*framework.Scope)) framework.Flow {
	pre := d.cost
	fr := ev.Frame()
	exitMark := len(fr.Exits)
	pass := func(l *framework.Loop) framework.Flow {
		ev.PushLoop(l)
		ev.PushTrail()
		it := framework.NewScope(sc)
		if perIter != nil {
			perIter(it)
		}
		f := ev.Exec(it, body)
		return f
	}

	// Pass 1: widening. Breaks recorded during this speculative pass must
	// not leak into an enclosing loop's break set: it runs under a
	// throwaway loop frame.
	pass(&framework.Loop{})
	finals := ev.PopTrail(true)
	ev.PopLoop()
	fr.Exits = fr.Exits[:exitMark]
	d.cost = pre
	for c, after := range finals {
		before := c.V
		bi, bok := before.(framework.Int)
		ai, aok := after.(framework.Int)
		be, bk := bi.Expr()
		ae, ak := ai.Expr()
		switch {
		case bok && aok && bk && ak:
			// Additive accumulator: publish its post-loop closed form.
			c.V = framework.SymInt(be.Add(ae.Sub(be).Mul(trip)))
		case kindOf(before) != kindOf(after):
			c.V = joinVal(before, after) // cross-kind: maybe-nil or opaque
		default:
			if bv, ok := before.(vec); ok && stable(bv.w, after.(vec).w) {
				continue // stable across the iteration
			}
			c.V = degrade(joinVal(before, after))
		}
	}

	// Pass 2: measure on the widened environment, then restore it, so the
	// measurement pass's own writes don't shift the published closed forms.
	l := &framework.Loop{}
	f := pass(l)
	ev.PopTrail(true)
	ev.PopLoop()
	total := d.cost.sub(pre).scale(trip)
	d.cost = pre.add(total)
	for i := exitMark; i < len(fr.Exits); i++ {
		fr.Exits[i].Mark = fr.Exits[i].Mark.(costVec).add(total)
	}
	for _, b := range l.Breaks {
		d.cost = d.cost.maxWith(b.(costVec).add(total))
	}
	if f == framework.FlowReturn {
		// Every path through the body returns: the loop body runs at most
		// once to its return; the exits above carry the bound.
		return framework.FlowReturn
	}
	return framework.FlowNormal
}

// ---------------------------------------------------------------------------
// Contracts: the boundary verbs.

const (
	hostFuel = 2_000_000
	rankFuel = 500_000
)

// Call models the boundary types' methods, keyed by receiver type name,
// and the few package functions whose shapes the derivation needs beyond
// the boundary's result shapes.
func (d *deriver) Call(ev *framework.Eval, fn *types.Func, recv Value, args []Value, call *ast.CallExpr) ([]Value, bool) {
	pos := call.Pos()
	sig := fn.Type().(*types.Signature)
	if sig.Recv() != nil {
		switch framework.NamedTypeName(sig.Recv().Type()) {
		case "Proc":
			return d.procContract(ev, fn.Name(), args, pos)
		case "Ints":
			if fn.Name() == "Words" {
				switch r := recv.(type) {
				case vec:
					return []Value{r.w}, true
				case opaque, maybeNil:
					return []Value{framework.Int{}}, true
				}
				ev.Fail(pos, "Words of %s", describe(recv))
			}
		case "Meta":
			if fn.Name() == "Words" {
				return []Value{framework.KnownInt(1)}, true
			}
		case "Algorithm":
			return d.algContract(ev, fn.Name(), recv, args, pos)
		case "Int":
			switch fn.Name() {
			case "WordLen":
				// Unit-word model: every digit occupies one machine word
				// (crosscheck worlds use small entries for exactly this reason).
				return []Value{framework.KnownInt(1)}, true
			case "Add", "Sub":
				// The result's word measure is the operands' maximum when
				// both are known (1 in the unit-word model).
				if r, ok := recv.(big); ok && r.w.Known {
					if a, ok := args[0].(big); ok && a.w.Known {
						return []Value{big{joinMeasure(r.w, a.w)}}, true
					}
				}
				return []Value{big{}}, true
			}
		}
		return nil, false
	}
	if fn.Pkg() == nil {
		return nil, false
	}
	switch fn.Pkg().Name() + "." + fn.Name() {
	case "toom.Recompose":
		// The recomposed scalar carries the share's word measure, as
		// MulSharesTo's operands do below.
		if v, ok := args[0].(vec); ok {
			return []Value{big{v.w}}, true
		}
		return []Value{big{}}, true
	case "points.StandardWithRedundancy":
		k, ok1 := framework.ConstOf(args[0])
		f, ok2 := framework.ConstOf(args[1])
		if !ok1 || !ok2 {
			ev.Fail(pos, "StandardWithRedundancy with unknown k/f")
		}
		elems := make([]Value, 2*k-1+f)
		for i := range elems {
			elems[i] = opaque{}
		}
		return []Value{framework.NewSlice(elems)}, true
	case "ftparallel.gcd64", "ftparallel.lcm64":
		// gcd64's Euclid loop is data-dependent; both are pure int helpers.
		return []Value{framework.Int{}}, true
	}
	return nil, false
}

func (d *deriver) procContract(ev *framework.Eval, name string, args []Value, pos token.Pos) ([]Value, bool) {
	switch name {
	case "ID":
		if d.symbolic {
			return []Value{framework.Int{}}, true
		}
		return []Value{framework.KnownInt(d.rank)}, true
	case "P":
		if d.symbolic {
			ev.Fail(pos, "p.P() has no symbolic model")
		}
		return []Value{framework.KnownInt(d.machineP)}, true
	case "Work":
		n, ok := framework.IntOf(args[0]).Expr()
		if !ok {
			ev.Fail(pos, "Work with unknown operation count")
		}
		d.charge(costVec{F: n})
		return nil, true
	case "Send":
		return []Value{d.sendContract(ev, args, pos)}, true
	case "RecvInts", "Recv":
		return d.recvContract(ev, args, pos), true
	case "Barrier":
		if d.symbolic {
			ev.Fail(pos, "Barrier has no symbolic model")
		}
		logP := framework.SymConst(ceilLog2(d.machineP))
		d.charge(costVec{S: logP, L: logP})
		// Zero-fault worlds: no fault events, nil error.
		return []Value{framework.NewSlice(nil), framework.Nil{}}, true
	case "Mark", "Free":
		return nil, true
	case "Store":
		return []Value{framework.Nil{}}, true
	case "Clock":
		return []Value{framework.Float{}}, true
	case "MemoryWords":
		return []Value{framework.Int{}}, true
	case "FaultCount":
		return []Value{framework.KnownInt(0)}, true
	case "RecvDeadline":
		ev.Fail(pos, "RecvDeadline outside modeled (zero-fault) protocol")
	}
	return nil, false
}

func ceilLog2(p int64) int64 {
	l := int64(0)
	for v := int64(1); v < p; v <<= 1 {
		l++
	}
	return max(l, 1)
}

// sendContract charges S/L and, in concrete mode, records the payload words
// in the send log (the cross-rank shape channel of the fixpoint).
func (d *deriver) sendContract(ev *framework.Eval, args []Value, pos token.Pos) Value {
	if len(args) != 3 {
		ev.Fail(pos, "Send arity")
	}
	w, wKnown := payloadWords(args[2])
	if d.symbolic {
		if !wKnown {
			ev.Fail(pos, "symbolic Send with unknown payload measure")
		}
		d.charge(costVec{S: w, L: framework.SymConst(1)})
		return framework.Nil{}
	}
	if d.joinDepth > 0 {
		ev.Fail(pos, "Send under an undecided branch")
	}
	dst, ok := framework.ConstOf(args[0])
	if !ok {
		ev.Fail(pos, "Send to unknown rank")
	}
	tag, ok := args[1].(framework.Str)
	if !ok || !tag.Known {
		ev.Fail(pos, "Send with unknown tag")
	}
	key := fmt.Sprintf("%d>%d|%s", d.rank, dst, tag.V)
	words := int64(-1) // unknown sentinel: poisons this pass, next pass refines
	if wKnown {
		if c, cok := w.IsConst(); cok {
			words = c
		}
	}
	d.curLog[key] = append(d.curLog[key], words)
	if words < 0 {
		d.logMiss = true
		d.charge(costVec{L: framework.SymConst(1)})
		return framework.Nil{}
	}
	d.charge(costVec{S: framework.SymConst(words), L: framework.SymConst(1)})
	return framework.Nil{}
}

func payloadWords(p Value) (framework.SymExpr, bool) {
	switch x := p.(type) {
	case vec:
		return x.w.Expr()
	case *framework.Struct:
		if x.Type == "Meta" {
			return framework.SymConst(1), true
		}
	}
	return framework.SymExpr{}, false
}

// recvContract returns (payload, error). In symbolic mode the SPMD-uniform
// assumption applies: every peer's payload has the caller's own measure
// spmdW. In concrete mode the send log of the previous pass supplies the
// measure; a miss marks the pass dirty and yields an unknown vector so
// evaluation continues (the length-contract refinement then picks up the
// code's own validation constants).
func (d *deriver) recvContract(ev *framework.Eval, args []Value, pos token.Pos) []Value {
	if len(args) != 2 {
		ev.Fail(pos, "Recv arity")
	}
	if d.symbolic {
		d.charge(costVec{R: d.spmdW})
		return []Value{vec{framework.SymInt(d.spmdW)}, framework.Nil{}}
	}
	src, ok := framework.ConstOf(args[0])
	if !ok {
		ev.Fail(pos, "Recv from unknown rank")
	}
	tag, ok := args[1].(framework.Str)
	if !ok || !tag.Known {
		ev.Fail(pos, "Recv with unknown tag")
	}
	key := fmt.Sprintf("%d>%d|%s", src, d.rank, tag.V)
	cur := d.recvCur[key]
	d.recvCur[key] = cur + 1
	log := d.prevLog[key]
	if cur >= len(log) || log[cur] == -1 {
		d.logMiss = true
		return []Value{vec{}, framework.Nil{}}
	}
	d.charge(costVec{R: framework.SymConst(log[cur])})
	return []Value{vec{framework.KnownInt(log[cur])}, framework.Nil{}}
}

// algContract models toom.Algorithm: k is the one shape parameter; the
// matrices are opaque coefficient sources; MulWithStats reports the
// schoolbook word-operation count the leaf charges.
func (d *deriver) algContract(ev *framework.Eval, name string, recv Value, args []Value, pos token.Pos) ([]Value, bool) {
	k := func() framework.SymExpr {
		if s, ok := recv.(*framework.Struct); ok {
			if e, ok := framework.IntOf(s.Fields["k"]).Expr(); ok {
				return e
			}
		}
		ev.Fail(pos, "Algorithm with unknown k")
		return framework.SymExpr{}
	}
	switch name {
	case "K":
		return []Value{framework.SymInt(k())}, true
	case "NumProducts":
		return []Value{framework.SymInt(k().Scale(2).Sub(framework.SymConst(1)))}, true
	case "U":
		return []Value{opaque{}}, true
	case "WScaled":
		return []Value{opaque{}, framework.Int{}}, true
	case "MulWithStats", "MulSharesTo":
		// MulSharesTo(dst, sharesA, sharesB, shift, stats) multiplies the
		// recomposed share vectors into dst: the operands carry the
		// vectors' measures, exactly as toom.Recompose's results do.
		shares := name == "MulSharesTo"
		ops, arity := args, 3
		if shares {
			ops, arity = args[1:], 5
		}
		if st, ok := args[len(args)-1].(*framework.Struct); ok && len(args) == arity {
			a, aok := measure(ops[0], shares)
			b, bok := measure(ops[1], shares)
			if !aok || !bok {
				ev.Fail(pos, "%s with unknown operand measures", name)
			}
			st.Fields["WordOps"] = framework.SymInt(a.Mul(b))
		}
		if shares {
			return nil, true
		}
		return []Value{big{}}, true
	case "Mul":
		return []Value{big{}}, true
	}
	return nil, false
}

// measure is an operand's word measure: a vector's for share vectors, a
// scalar's otherwise.
func measure(v Value, shares bool) (framework.SymExpr, bool) {
	if shares {
		if x, ok := v.(vec); ok {
			return x.w.Expr()
		}
	} else if x, ok := v.(big); ok {
		return x.w.Expr()
	}
	return framework.SymExpr{}, false
}

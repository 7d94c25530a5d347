package framework

// interval.go is the value-range abstract-interpretation layer: an interval
// lattice over unsigned 64-bit values, an abstract evaluator for Go
// expressions with go/constant folding and math/bits contracts, branch
// condition refinement (the `if x >= twoP { x -= twoP }` conditional-subtract
// idiom of the Harvey lazy NTT kernels), and a forward solver with widening
// and bounded narrowing on top of the generic worklist engine in dataflow.go.
//
// Semantics. An Interval [Lo, Hi] attached to an expression claims that every
// run-time value of that expression, as a mathematical integer, lies in
// [Lo, Hi]. For unsigned-typed expressions the full interval [0, 2^64-1] is a
// trivially true claim; for signed-typed expressions the full interval means
// "no claim" (the value may be negative), and signed expressions only ever
// carry a non-full interval when the analysis can prove the value
// non-negative (constants, len results, loop counters started at zero).
// Refinement and arithmetic are careful never to manufacture a claim from a
// signed no-claim operand.
//
// Arithmetic on unsigned operands tracks wraparound: when an add, subtract,
// or multiply may exceed the uint64 range the result degrades to the full
// interval and the client's OnWrap hook is told (possible vs. definite). A
// definite full-range wrap of a subtraction is still represented exactly —
// the wrapped image of a contiguous range is contiguous — because the
// `x - y + 2^64` pattern is well defined; clients decide whether it is a bug.
//
// The environment maps *paths* — a variable, a variable's field, or a
// constant index into a package-level table, e.g. `u`, `pr.p`,
// `nttPrimes[0].p` — to intervals, with strong updates on assignment. Slice
// and array element contents are deliberately not tracked: clients supply
// element contracts through the Elem hook and observe element stores through
// StoreElem, which is exactly the shape a lazy-buffer proof needs (loads
// assume the buffer invariant, stores must re-establish it).

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"math/bits"
	"strconv"
)

const maxUint64 = ^uint64(0)

// maxInt63 bounds values produced by len/cap and non-negative signed claims.
const maxInt63 = uint64(1)<<63 - 1

// Interval is a closed interval of mathematical integers representable in
// uint64. The empty interval (Lo > Hi) is the lattice bottom; [0, 2^64-1] is
// the top.
type Interval struct {
	Lo, Hi uint64
}

// EmptyInterval returns the bottom element.
func EmptyInterval() Interval { return Interval{1, 0} }

// FullInterval returns the top element [0, 2^64-1].
func FullInterval() Interval { return Interval{0, maxUint64} }

// PointInterval returns the singleton [v, v].
func PointInterval(v uint64) Interval { return Interval{v, v} }

// NewInterval returns [lo, hi]; lo > hi yields the empty interval.
func NewInterval(lo, hi uint64) Interval { return Interval{lo, hi} }

// IsEmpty reports whether the interval contains no values.
func (iv Interval) IsEmpty() bool { return iv.Lo > iv.Hi }

// IsFull reports whether the interval is [0, 2^64-1].
func (iv Interval) IsFull() bool { return iv.Lo == 0 && iv.Hi == maxUint64 }

// Single returns the interval's value when it is a singleton.
func (iv Interval) Single() (uint64, bool) { return iv.Lo, iv.Lo == iv.Hi }

// Join is the lattice least upper bound (interval hull).
func (iv Interval) Join(o Interval) Interval {
	if iv.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return iv
	}
	return Interval{min64(iv.Lo, o.Lo), max64(iv.Hi, o.Hi)}
}

// Meet is the lattice greatest lower bound (intersection).
func (iv Interval) Meet(o Interval) Interval {
	if iv.IsEmpty() || o.IsEmpty() {
		return EmptyInterval()
	}
	return Interval{max64(iv.Lo, o.Lo), min64(iv.Hi, o.Hi)}
}

// Widen extrapolates an unstable bound to the lattice extreme: a lower bound
// still descending goes to 0, an upper bound still ascending to 2^64-1. The
// receiver is the previous iterate, next the new one; each bound can move at
// most once, which is what makes loop-carried interval analysis terminate.
func (iv Interval) Widen(next Interval) Interval {
	if iv.IsEmpty() {
		return next
	}
	if next.IsEmpty() {
		return iv
	}
	w := iv
	if next.Lo < iv.Lo {
		w.Lo = 0
	}
	if next.Hi > iv.Hi {
		w.Hi = maxUint64
	}
	return w
}

// Equal reports lattice equality (all empty intervals are identified).
func (iv Interval) Equal(o Interval) bool {
	if iv.IsEmpty() && o.IsEmpty() {
		return true
	}
	return iv == o
}

// String renders the interval for diagnostics: "[lo, hi]", "⊥", or "⊤".
func (iv Interval) String() string {
	switch {
	case iv.IsEmpty():
		return "⊥"
	case iv.IsFull():
		return "⊤"
	case iv.Lo == iv.Hi:
		return strconv.FormatUint(iv.Lo, 10)
	default:
		return fmt.Sprintf("[%d, %d]", iv.Lo, iv.Hi)
	}
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// ValKey names one tracked path: a variable, optionally narrowed to a
// constant element index and/or a single field. `u` is {Obj: u, Index: -1};
// `pr.p` is {Obj: pr, Index: -1, Field: "p"}; `nttPrimes[0].p` is
// {Obj: nttPrimes, Index: 0, Field: "p"}.
type ValKey struct {
	Obj   types.Object
	Index int // constant element index, -1 when absent
	Field string
}

// KeyOf returns the key of the bare variable obj.
func KeyOf(obj types.Object) ValKey { return ValKey{Obj: obj, Index: -1} }

// WithField narrows the key to one named field.
func (k ValKey) WithField(name string) ValKey { k.Field = name; return k }

// AtIndex narrows the key to one constant element index.
func (k ValKey) AtIndex(i int) ValKey { k.Index = i; return k }

// IntervalEnv maps tracked paths to intervals at one program point. A path
// absent from the map is unconstrained (top). The unreachable environment is
// the flow-lattice bottom: the fact of a program point no execution reaches.
type IntervalEnv struct {
	vals        map[ValKey]Interval
	aliases     map[types.Object]types.Object // p := &global: reads of p.f read global.f
	unreachable bool
}

// NewIntervalEnv returns an empty reachable environment.
func NewIntervalEnv() *IntervalEnv {
	return &IntervalEnv{vals: map[ValKey]Interval{}, aliases: map[types.Object]types.Object{}}
}

// UnreachableEnv returns the flow bottom.
func UnreachableEnv() *IntervalEnv { return &IntervalEnv{unreachable: true} }

// IsUnreachable reports whether no execution reaches this point.
func (e *IntervalEnv) IsUnreachable() bool { return e.unreachable }

// Get returns the interval of a tracked path, resolving the base variable
// through recorded pointer aliases.
func (e *IntervalEnv) Get(k ValKey) (Interval, bool) {
	if e.unreachable {
		return EmptyInterval(), true
	}
	if a, ok := e.aliases[k.Obj]; ok {
		k.Obj = a
	}
	iv, ok := e.vals[k]
	return iv, ok
}

// Set records the interval of a path (strong update). Setting the full
// interval removes the entry on unsigned paths — absent means top.
func (e *IntervalEnv) Set(k ValKey, iv Interval) {
	if e.unreachable {
		return
	}
	if a, ok := e.aliases[k.Obj]; ok {
		k.Obj = a
	}
	if iv.IsFull() {
		delete(e.vals, k)
		return
	}
	e.vals[k] = iv
}

// SetAlias records that reads and writes through from resolve to to, as
// established by `from := &to`.
func (e *IntervalEnv) SetAlias(from, to types.Object) {
	if e.unreachable {
		return
	}
	e.aliases[from] = to
}

// DropBase forgets every path rooted at obj — the havoc applied when a call
// may mutate obj through a pointer.
func (e *IntervalEnv) DropBase(obj types.Object) {
	if e.unreachable {
		return
	}
	if a, ok := e.aliases[obj]; ok {
		obj = a
	}
	for k := range e.vals {
		if k.Obj == obj {
			delete(e.vals, k)
		}
	}
}

// Clone returns an independent copy.
func (e *IntervalEnv) Clone() *IntervalEnv {
	if e.unreachable {
		return UnreachableEnv()
	}
	c := &IntervalEnv{
		vals:    make(map[ValKey]Interval, len(e.vals)),
		aliases: make(map[types.Object]types.Object, len(e.aliases)),
	}
	for k, v := range e.vals {
		c.vals[k] = v
	}
	for k, v := range e.aliases {
		c.aliases[k] = v
	}
	return c
}

// JoinEnv is the flow join: pointwise interval hull, keeping only paths
// constrained on both sides (absent = top is the identity direction) and
// aliases recorded identically on both.
func JoinEnv(a, b *IntervalEnv) *IntervalEnv {
	if a.unreachable {
		return b.Clone()
	}
	if b.unreachable {
		return a.Clone()
	}
	j := NewIntervalEnv()
	for k, av := range a.vals {
		if bv, ok := b.vals[k]; ok {
			iv := av.Join(bv)
			if !iv.IsFull() {
				j.vals[k] = iv
			}
		}
	}
	for k, at := range a.aliases {
		if bt, ok := b.aliases[k]; ok && at == bt {
			j.aliases[k] = at
		}
	}
	return j
}

// EqualEnv detects the flow fixpoint.
func EqualEnv(a, b *IntervalEnv) bool {
	if a.unreachable || b.unreachable {
		return a.unreachable == b.unreachable
	}
	if len(a.vals) != len(b.vals) || len(a.aliases) != len(b.aliases) {
		return false
	}
	for k, av := range a.vals {
		if bv, ok := b.vals[k]; !ok || !av.Equal(bv) {
			return false
		}
	}
	for k, at := range a.aliases {
		if bt, ok := b.aliases[k]; !ok || at != bt {
			return false
		}
	}
	return true
}

// WidenEnv extrapolates a's entries against the newer iterate b; paths
// constrained only on one side go to top (dropped).
func WidenEnv(a, b *IntervalEnv) *IntervalEnv {
	if a.unreachable {
		return b.Clone()
	}
	if b.unreachable {
		return a.Clone()
	}
	w := NewIntervalEnv()
	for k, av := range a.vals {
		if bv, ok := b.vals[k]; ok {
			iv := av.Widen(bv)
			if !iv.IsFull() {
				w.vals[k] = iv
			}
		}
	}
	for k, at := range a.aliases {
		if bt, ok := b.aliases[k]; ok && at == bt {
			w.aliases[k] = at
		}
	}
	return w
}

// IntervalEval evaluates expressions to intervals under an environment. The
// hooks let a client (an analyzer) supply domain contracts and observe the
// obligations the engine cannot discharge itself. All hooks may be nil.
type IntervalEval struct {
	Info *types.Info

	// Call supplies contracts for calls: given the call and the already
	// evaluated argument intervals it returns one interval per result and
	// handled=true. Unhandled calls fall back to builtin and math/bits
	// contracts, then to interprocedural summary return bounds, then top.
	// The hook runs during both solving and reporting — use Reporting to
	// emit diagnostics only once.
	Call func(call *ast.CallExpr, args []Interval, env *IntervalEnv) (results []Interval, handled bool)

	// Elem supplies the element contract of a slice/array-valued expression,
	// consulted for index loads the environment cannot key and for
	// range-statement value bindings. site is the loading IndexExpr, or nil
	// for a range binding.
	Elem func(base ast.Expr, site *ast.IndexExpr) (Interval, bool)

	// StoreElem observes a store through an index expression the
	// environment cannot key, with the stored value's interval. Called only
	// while Reporting.
	StoreElem func(site *ast.IndexExpr, v Interval, env *IntervalEnv)

	// StoreKey observes every keyed store (locals, fields, constant-indexed
	// globals). Called only while Reporting.
	StoreKey func(site ast.Expr, key ValKey, v Interval, env *IntervalEnv)

	// OnWrap observes an unsigned add/sub/mul whose result may (or
	// definitely does) leave the uint64 range. Called only while Reporting.
	OnWrap func(site ast.Expr, op token.Token, definite bool)

	// Summaries, when set, supplies interprocedural return bounds for calls
	// no other contract covers.
	Summaries *Summaries

	// rangeBind maps the Key/Value ident nodes of range statements (the
	// nodes a range.head CFG block carries) to the ranged-over expression.
	rangeBind map[ast.Node]rangeRole

	reporting bool
}

type rangeRole struct {
	x     ast.Expr // the ranged-over expression
	isKey bool
}

// Reporting reports whether the engine is in its diagnostic pass; hooks that
// emit findings should stay silent while it is false (the solver calls them
// repeatedly on the way to the fixpoint).
func (ev *IntervalEval) Reporting() bool { return ev.reporting }

// BindRanges records the range statements of body so the solver can bind
// their key/value idents when it reaches a range head. Call once per solved
// body (function or function literal); nested literals need their own call.
func (ev *IntervalEval) BindRanges(body ast.Node) {
	if ev.rangeBind == nil {
		ev.rangeBind = map[ast.Node]rangeRole{}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if rs, ok := n.(*ast.RangeStmt); ok {
			if rs.Key != nil {
				ev.rangeBind[rs.Key] = rangeRole{x: rs.X, isKey: true}
			}
			if rs.Value != nil {
				ev.rangeBind[rs.Value] = rangeRole{x: rs.X}
			}
		}
		return true
	})
}

func (ev *IntervalEval) typeOf(e ast.Expr) types.Type {
	if tv, ok := ev.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func isUnsignedType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsUnsigned != 0
}

func isPackageLevel(obj types.Object) bool {
	return obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}

func isIntegerType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// ConstUint folds a go/constant value to uint64 when it is a non-negative
// integer representable in 64 bits. Analyzers use it to fold constants
// outside the interval engine proper (prime-table collection, tag pairing).
func ConstUint(v constant.Value) (uint64, bool) {
	iv, ok := constInterval(v)
	if !ok {
		return 0, false
	}
	return iv.Lo, true
}

// constInterval converts a constant value to a singleton interval when it is
// a non-negative integer representable in uint64.
func constInterval(v constant.Value) (Interval, bool) {
	if v == nil {
		return FullInterval(), false
	}
	v = constant.ToInt(v)
	if v.Kind() != constant.Int || constant.Sign(v) < 0 {
		return FullInterval(), false
	}
	u, ok := constant.Uint64Val(v)
	if !ok {
		return FullInterval(), false
	}
	return PointInterval(u), true
}

// Key resolves an lvalue-ish expression to its tracked path, when it has
// one: an identifier, a single-level field selection, a constant index, or a
// pointer dereference of any of those.
func (ev *IntervalEval) Key(e ast.Expr, env *IntervalEnv) (ValKey, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := ev.Info.ObjectOf(e)
		if obj == nil {
			return ValKey{}, false
		}
		if _, isVar := obj.(*types.Var); !isVar {
			return ValKey{}, false
		}
		return KeyOf(obj), true
	case *ast.StarExpr:
		return ev.Key(e.X, env)
	case *ast.SelectorExpr:
		base, ok := ev.Key(e.X, env)
		if !ok || base.Field != "" {
			return ValKey{}, false
		}
		return base.WithField(e.Sel.Name), true
	case *ast.IndexExpr:
		// Constant indices are tracked only into package-level tables
		// (nttPrimes[0].p): local slices and arrays stay element-contract
		// territory, so stores to them reach the StoreElem obligation hook
		// instead of silently becoming strong updates.
		base, ok := ev.Key(e.X, env)
		if !ok || base.Field != "" || base.Index != -1 || !isPackageLevel(base.Obj) {
			return ValKey{}, false
		}
		tv, ok := ev.Info.Types[e.Index]
		if !ok || tv.Value == nil {
			return ValKey{}, false
		}
		iv, ok := constInterval(tv.Value)
		if !ok || iv.Lo > uint64(1)<<31 {
			return ValKey{}, false
		}
		return base.AtIndex(int(iv.Lo)), true
	}
	return ValKey{}, false
}

// Eval computes the interval of e under env. The result is a genuine claim
// for unsigned-typed expressions; for signed-typed expressions a full
// interval means "no claim" (see the package comment).
func (ev *IntervalEval) Eval(e ast.Expr, env *IntervalEnv) Interval {
	e = ast.Unparen(e)
	if tv, ok := ev.Info.Types[e]; ok && tv.Value != nil {
		if iv, ok := constInterval(tv.Value); ok {
			return iv
		}
		return FullInterval()
	}

	switch e := e.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr:
		if k, ok := ev.Key(e, env); ok {
			if iv, ok := env.Get(k); ok {
				return iv
			}
		}
		return FullInterval()

	case *ast.IndexExpr:
		if k, ok := ev.Key(e, env); ok {
			if iv, ok := env.Get(k); ok {
				return iv
			}
		}
		ev.Eval(e.Index, env)
		if ev.Elem != nil {
			if iv, ok := ev.Elem(e.X, e); ok {
				return iv
			}
		}
		return FullInterval()

	case *ast.BinaryExpr:
		return ev.evalBinary(e, env)

	case *ast.UnaryExpr:
		x := ev.Eval(e.X, env)
		switch e.Op {
		case token.ADD:
			return x
		case token.SUB:
			// 0 - x on unsigned wraps unless x == 0.
			if isUnsignedType(ev.typeOf(e)) {
				if v, ok := x.Single(); ok && v == 0 {
					return PointInterval(0)
				}
				ev.wrap(e, token.SUB, x.Lo > 0)
			}
			return FullInterval()
		default:
			// ^x, &x, <-ch: no numeric claim.
			return FullInterval()
		}

	case *ast.CallExpr:
		res := ev.EvalCall(e, env)
		if len(res) == 1 {
			return res[0]
		}
		return FullInterval()
	}
	return FullInterval()
}

func (ev *IntervalEval) wrap(e ast.Expr, op token.Token, definite bool) {
	if ev.reporting && ev.OnWrap != nil {
		ev.OnWrap(e, op, definite)
	}
}

func (ev *IntervalEval) evalBinary(e *ast.BinaryExpr, env *IntervalEnv) Interval {
	x := ev.Eval(e.X, env)
	y := ev.Eval(e.Y, env)
	t := ev.typeOf(e)

	if !isIntegerType(t) {
		return FullInterval()
	}
	unsigned := isUnsignedType(t)

	switch e.Op {
	case token.ADD:
		if unsigned {
			hi, hiOver := addOver(x.Hi, y.Hi)
			lo, loOver := addOver(x.Lo, y.Lo)
			switch {
			case !hiOver:
				return Interval{lo, hi}
			case loOver:
				ev.wrap(e, token.ADD, true)
				return Interval{lo, hi} // both ends wrapped: contiguous image
			default:
				ev.wrap(e, token.ADD, false)
				return FullInterval()
			}
		}
		// Signed: only claim when both operands claim and the sum fits the
		// non-negative half.
		if !x.IsFull() && !y.IsFull() && x.Hi <= maxInt63 && y.Hi <= maxInt63-x.Hi {
			return Interval{x.Lo + y.Lo, x.Hi + y.Hi}
		}
		return FullInterval()

	case token.SUB:
		switch {
		case x.Lo >= y.Hi:
			return Interval{x.Lo - y.Hi, x.Hi - y.Lo}
		case unsigned && x.Hi < y.Lo:
			ev.wrap(e, token.SUB, true)
			return Interval{x.Lo - y.Hi, x.Hi - y.Lo} // both ends wrapped
		case unsigned:
			ev.wrap(e, token.SUB, false)
			return FullInterval()
		default:
			return FullInterval() // signed difference may be negative: no claim
		}

	case token.MUL:
		hiHi, hiLo := bits.Mul64(x.Hi, y.Hi)
		if unsigned {
			if hiHi == 0 {
				return Interval{x.Lo * y.Lo, hiLo}
			}
			loHi, _ := bits.Mul64(x.Lo, y.Lo)
			ev.wrap(e, token.MUL, loHi != 0)
			return FullInterval()
		}
		if !x.IsFull() && !y.IsFull() && hiHi == 0 && hiLo <= maxInt63 {
			return Interval{x.Lo * y.Lo, hiLo}
		}
		return FullInterval()

	case token.QUO:
		yLo := max64(y.Lo, 1) // y == 0 panics; surviving executions have y >= 1
		if y.Hi == 0 {
			return FullInterval()
		}
		if unsigned || !x.IsFull() {
			return Interval{x.Lo / y.Hi, x.Hi / yLo}
		}
		return FullInterval()

	case token.REM:
		if y.Hi == 0 {
			return FullInterval()
		}
		if unsigned || !x.IsFull() {
			if x.Hi < max64(y.Lo, 1) {
				return x // dividend already below every divisor
			}
			return Interval{0, y.Hi - 1}
		}
		return FullInterval()

	case token.AND:
		if unsigned || (!x.IsFull() && !y.IsFull()) {
			return Interval{0, min64(x.Hi, y.Hi)}
		}
		return FullInterval()

	case token.OR, token.XOR:
		if unsigned || (!x.IsFull() && !y.IsFull()) {
			n := bits.Len64(x.Hi | y.Hi)
			if n >= 64 {
				return FullInterval()
			}
			return Interval{0, uint64(1)<<n - 1}
		}
		return FullInterval()

	case token.SHL:
		if s, ok := y.Single(); ok && s < 64 {
			if claim := unsigned || !x.IsFull(); claim && x.Hi <= maxUint64>>s {
				return Interval{x.Lo << s, x.Hi << s}
			}
		}
		return FullInterval()

	case token.SHR:
		if unsigned || !x.IsFull() {
			sLo, sHi := y.Lo, min64(y.Hi, 63)
			if y.Lo > 63 {
				return PointInterval(0)
			}
			return Interval{x.Lo >> sHi, x.Hi >> sLo}
		}
		return FullInterval()
	}
	return FullInterval()
}

func addOver(a, b uint64) (uint64, bool) {
	s, c := bits.Add64(a, b, 0)
	return s, c != 0
}

// EvalCall evaluates a call (or conversion) to one interval per result.
func (ev *IntervalEval) EvalCall(call *ast.CallExpr, env *IntervalEnv) []Interval {
	// Conversion: T(x) keeps x's claim when it provably fits T.
	if tv, ok := ev.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) != 1 {
			return []Interval{FullInterval()}
		}
		x := ev.Eval(call.Args[0], env)
		return []Interval{convertInterval(x, ev.typeOf(call.Args[0]), tv.Type)}
	}

	args := make([]Interval, len(call.Args))
	for i, a := range call.Args {
		args[i] = ev.Eval(a, env)
	}

	if ev.Call != nil {
		if res, handled := ev.Call(call, args, env); handled {
			return res
		}
	}

	if res, ok := ev.stdCall(call, args); ok {
		return res
	}

	if ev.Summaries != nil {
		if sum := ev.Summaries.Callee(ev.Info, call); sum != nil && !sum.Returns.IsFull() && !sum.Returns.IsEmpty() {
			return []Interval{sum.Returns}
		}
	}

	return ev.topResults(call)
}

func (ev *IntervalEval) topResults(call *ast.CallExpr) []Interval {
	if t := ev.typeOf(call); t != nil {
		if tup, ok := t.(*types.Tuple); ok {
			res := make([]Interval, tup.Len())
			for i := range res {
				res[i] = FullInterval()
			}
			return res
		}
	}
	return []Interval{FullInterval()}
}

func convertInterval(x Interval, from, to types.Type) Interval {
	if x.IsEmpty() {
		return x
	}
	b, ok := to.Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsInteger == 0 || !isIntegerType(from) {
		return FullInterval()
	}
	// A signed source with no claim may be negative: its conversion image is
	// unknown.
	if !isUnsignedType(from) && x.IsFull() {
		return FullInterval()
	}
	if b.Info()&types.IsUnsigned != 0 {
		var width uint
		switch b.Kind() {
		case types.Uint8:
			width = 8
		case types.Uint16:
			width = 16
		case types.Uint32:
			width = 32
		case types.Uint:
			width = 32 // sound on both 32- and 64-bit targets
		default: // Uint64, Uintptr
			width = 64
		}
		if width == 64 || x.Hi < uint64(1)<<width {
			return x
		}
		return FullInterval()
	}
	// Signed target: the claim survives when the value fits the
	// non-negative half.
	if x.Hi <= maxInt63 {
		return x
	}
	return FullInterval()
}

// stdCall covers the builtins and the math/bits multi-precision primitives
// the NTT kernels lean on. Like the rest of ftlint, matching is by bare
// callee name so import-free fixtures get the same contracts.
func (ev *IntervalEval) stdCall(call *ast.CallExpr, args []Interval) ([]Interval, bool) {
	id := CalleeIdent(call)
	if id == nil {
		return nil, false
	}
	switch id.Name {
	case "len", "cap":
		return []Interval{{0, maxInt63}}, true
	case "min":
		if len(args) > 0 {
			iv := args[0]
			for _, a := range args[1:] {
				iv = Interval{min64(iv.Lo, a.Lo), min64(iv.Hi, a.Hi)}
			}
			return []Interval{iv}, true
		}
	case "max":
		if len(args) > 0 {
			iv := args[0]
			for _, a := range args[1:] {
				iv = Interval{max64(iv.Lo, a.Lo), max64(iv.Hi, a.Hi)}
			}
			return []Interval{iv}, true
		}
	case "Mul64":
		if len(args) == 2 {
			hiLo, loLo := bits.Mul64(args[0].Lo, args[1].Lo)
			hiHi, _ := bits.Mul64(args[0].Hi, args[1].Hi)
			lo := FullInterval()
			_, aPt := args[0].Single()
			_, bPt := args[1].Single()
			if aPt && bPt {
				// Point operands: the full 128-bit product is known exactly.
				lo = PointInterval(loLo)
			}
			return []Interval{{hiLo, hiHi}, lo}, true
		}
	case "Add64":
		if len(args) == 3 {
			carryIn := min64(args[2].Hi, 1)
			lo, loOver := addOver(args[0].Lo, args[1].Lo)
			hi, hiOver := addOver(args[0].Hi, args[1].Hi)
			hi, hiOver2 := addOver(hi, carryIn)
			switch {
			case !hiOver && !hiOver2:
				return []Interval{{lo, hi}, PointInterval(0)}, true
			case loOver:
				return []Interval{{lo, hi}, PointInterval(1)}, true
			default:
				return []Interval{FullInterval(), {0, 1}}, true
			}
		}
	case "Sub64":
		if len(args) == 3 {
			if args[2].Hi == 0 && args[0].Lo >= args[1].Hi {
				return []Interval{{args[0].Lo - args[1].Hi, args[0].Hi - args[1].Lo}, PointInterval(0)}, true
			}
			return []Interval{FullInterval(), {0, 1}}, true
		}
	case "Div64":
		if len(args) == 3 {
			rem := FullInterval()
			if args[2].Hi > 0 {
				rem = Interval{0, args[2].Hi - 1}
			}
			return []Interval{FullInterval(), rem}, true
		}
	case "TrailingZeros64", "LeadingZeros64", "Len64", "OnesCount64":
		return []Interval{{0, 64}}, true
	}
	return nil, false
}

// Refine narrows env under the assumption that cond evaluates to truth,
// returning a fresh environment. It understands comparisons over tracked
// paths, negation, `a && b` (true side), and `a || b` (false side); an
// infeasible assumption yields the unreachable environment.
func (ev *IntervalEval) Refine(cond ast.Expr, truth bool, env *IntervalEnv) *IntervalEnv {
	if env.IsUnreachable() {
		return env
	}
	cond = ast.Unparen(cond)
	switch c := cond.(type) {
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			return ev.Refine(c.X, !truth, env)
		}
	case *ast.BinaryExpr:
		switch c.Op {
		case token.LAND:
			if truth {
				return ev.Refine(c.Y, true, ev.Refine(c.X, true, env))
			}
		case token.LOR:
			if !truth {
				return ev.Refine(c.Y, false, ev.Refine(c.X, false, env))
			}
		case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
			op := c.Op
			if !truth {
				op = negateCmp(op)
			}
			return ev.refineCmp(c.X, op, c.Y, env)
		}
	}
	return env
}

func negateCmp(op token.Token) token.Token {
	switch op {
	case token.LSS:
		return token.GEQ
	case token.LEQ:
		return token.GTR
	case token.GTR:
		return token.LEQ
	case token.GEQ:
		return token.LSS
	case token.EQL:
		return token.NEQ
	default:
		return token.EQL
	}
}

// refineCmp narrows the environment under the assumption `x op y`. Each side
// is narrowed only when the *other* side's interval is a usable claim — for
// signed expressions a full interval claims nothing, and a signed target is
// never narrowed from no-claim to claim (that would assert non-negativity
// the program never proved).
func (ev *IntervalEval) refineCmp(x ast.Expr, op token.Token, y ast.Expr, env *IntervalEnv) *IntervalEnv {
	out := env.Clone()
	ev.refineSide(x, op, y, out)
	ev.refineSide(y, flipCmp(op), x, out)
	return out
}

func flipCmp(op token.Token) token.Token {
	switch op {
	case token.LSS:
		return token.GTR
	case token.LEQ:
		return token.GEQ
	case token.GTR:
		return token.LSS
	case token.GEQ:
		return token.LEQ
	default:
		return op // EQL, NEQ are symmetric
	}
}

// refineSide narrows x's entry in env under `x op bound`, mutating env (and
// downgrading it to unreachable when the assumption is infeasible).
func (ev *IntervalEval) refineSide(x ast.Expr, op token.Token, bound ast.Expr, env *IntervalEnv) {
	if env.IsUnreachable() {
		return
	}
	k, ok := ev.Key(x, env)
	if !ok {
		return
	}
	bv := ev.Eval(bound, env)
	if bv.IsEmpty() {
		return
	}
	// A signed bound with no claim tells us nothing; an unsigned bound's
	// full interval is still the true claim [0, 2^64-1].
	if !isUnsignedType(ev.typeOf(bound)) && bv.IsFull() {
		return
	}
	xv := ev.Eval(x, env)
	signedTarget := !isUnsignedType(ev.typeOf(x))
	if signedTarget && xv.IsFull() {
		return // cannot conjure non-negativity for a signed unknown
	}

	var narrowed Interval
	switch op {
	case token.LSS:
		if bv.Hi == 0 {
			narrowed = EmptyInterval()
		} else {
			narrowed = xv.Meet(Interval{0, bv.Hi - 1})
		}
	case token.LEQ:
		narrowed = xv.Meet(Interval{0, bv.Hi})
	case token.GTR:
		if bv.Lo == maxUint64 {
			narrowed = EmptyInterval()
		} else {
			narrowed = xv.Meet(Interval{bv.Lo + 1, maxUint64})
		}
	case token.GEQ:
		narrowed = xv.Meet(Interval{bv.Lo, maxUint64})
	case token.EQL:
		narrowed = xv.Meet(bv)
	case token.NEQ:
		narrowed = xv
		if v, ok := bv.Single(); ok && !xv.IsEmpty() {
			switch {
			case xv.Lo == v && xv.Hi == v:
				narrowed = EmptyInterval()
			case xv.Lo == v:
				narrowed = Interval{v + 1, xv.Hi}
			case xv.Hi == v:
				narrowed = Interval{xv.Lo, v - 1}
			}
		}
	default:
		return
	}
	if narrowed.IsEmpty() {
		*env = *UnreachableEnv()
		return
	}
	env.Set(k, narrowed)
}

// IntervalAnalysis solves the interval dataflow problem of one function body
// on the generic worklist engine, with per-block widening after WidenAfter
// visits and a bounded narrowing sweep to claw back precision the widening
// gave up where branch conditions re-bound it.
type IntervalAnalysis struct {
	Eval *IntervalEval
	// WidenAfter is the visit count at which a block's input starts being
	// widened; 0 means the default (4).
	WidenAfter int
	// NarrowPasses bounds the post-fixpoint narrowing sweeps; 0 means the
	// default (2).
	NarrowPasses int
}

func (ia *IntervalAnalysis) widenAfter() int {
	if ia.WidenAfter > 0 {
		return ia.WidenAfter
	}
	return 4
}

func (ia *IntervalAnalysis) narrowPasses() int {
	if ia.NarrowPasses > 0 {
		return ia.NarrowPasses
	}
	return 2
}

// edgeTransfer refines the fact along condition-directed edges.
func (ia *IntervalAnalysis) edgeTransfer(from, to *Block, f *IntervalEnv) *IntervalEnv {
	if from.Branch == nil || f.IsUnreachable() || from.TrueSucc == from.FalseSucc {
		return f
	}
	switch to {
	case from.TrueSucc:
		return ia.Eval.Refine(from.Branch, true, f)
	case from.FalseSucc:
		return ia.Eval.Refine(from.Branch, false, f)
	}
	return f
}

// Solve runs the interval analysis over cfg with the entry environment seed
// (parameter and receiver contracts). The returned facts are block-entry and
// block-exit environments.
func (ia *IntervalAnalysis) Solve(cfg *CFG, seed *IntervalEnv) *FlowResult[*IntervalEnv] {
	visits := make(map[*Block]int, len(cfg.Blocks))
	prevIn := make(map[*Block]*IntervalEnv, len(cfg.Blocks))

	res := ForwardSolve(cfg, FlowSpec[*IntervalEnv]{
		Bottom:   func() *IntervalEnv { return UnreachableEnv() },
		Boundary: func() *IntervalEnv { return seed.Clone() },
		Join:     JoinEnv,
		Equal:    EqualEnv,
		Transfer: func(b *Block, in *IntervalEnv) *IntervalEnv {
			visits[b]++
			if visits[b] > ia.widenAfter() {
				if p := prevIn[b]; p != nil {
					in = WidenEnv(p, in)
				}
			}
			prevIn[b] = in
			return ia.transfer(b, in)
		},
		EdgeTransfer: ia.edgeTransfer,
	})

	// Narrowing: recompute inputs from the solved outputs without widening,
	// a bounded number of times. Each recomputed input is a sound fact (it
	// is the refined join of sound outputs), so stopping early is safe.
	for pass := 0; pass < ia.narrowPasses(); pass++ {
		changed := false
		for _, b := range cfg.Blocks {
			in := UnreachableEnv()
			if b == cfg.Entry {
				in = seed.Clone()
			}
			for _, p := range b.Preds {
				in = JoinEnv(in, ia.edgeTransfer(p, b, res.Out[p]))
			}
			out := ia.transfer(b, in)
			if !EqualEnv(in, res.In[b]) || !EqualEnv(out, res.Out[b]) {
				res.In[b] = in
				res.Out[b] = out
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return res
}

// Report replays every reachable block's transfer with the diagnostic hooks
// armed, using the solved entry facts.
func (ia *IntervalAnalysis) Report(cfg *CFG, res *FlowResult[*IntervalEnv]) {
	ia.Eval.reporting = true
	defer func() { ia.Eval.reporting = false }()
	for _, b := range cfg.Blocks {
		if b != cfg.Entry && len(b.Preds) == 0 {
			continue // dead code has no executions to diagnose
		}
		if res.In[b].IsUnreachable() {
			continue
		}
		ia.transfer(b, res.In[b])
	}
}

// transfer interprets one basic block.
func (ia *IntervalAnalysis) transfer(b *Block, in *IntervalEnv) *IntervalEnv {
	if in.IsUnreachable() {
		return in
	}
	env := in.Clone()
	for _, node := range b.Nodes {
		ia.node(node, env)
	}
	return env
}

func (ia *IntervalAnalysis) node(node ast.Node, env *IntervalEnv) {
	ev := ia.Eval
	switch n := node.(type) {
	case *ast.AssignStmt:
		ia.assignStmt(n, env)

	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				var iv Interval
				if i < len(vs.Values) {
					iv = ev.Eval(vs.Values[i], env)
				} else if obj := ev.Info.ObjectOf(name); obj != nil && isIntegerType(obj.Type()) {
					iv = PointInterval(0) // zero value
				} else {
					iv = FullInterval()
				}
				ia.assignTo(name, iv, nil, env)
			}
		}

	case *ast.IncDecStmt:
		x := ev.Eval(n.X, env)
		op := token.ADD
		if n.Tok == token.DEC {
			op = token.SUB
		}
		ia.assignTo(n.X, ia.arith(n.X, op, x, PointInterval(1)), nil, env)

	case *ast.ExprStmt:
		ia.evalForEffect(n.X, env)

	case *ast.ReturnStmt:
		for _, r := range n.Results {
			ev.Eval(r, env)
		}

	case *ast.SendStmt:
		ev.Eval(n.Value, env)

	case *ast.GoStmt:
		ia.havocCallArgs(n.Call, env)

	case *ast.DeferStmt:
		ia.evalForEffect(n.Call, env)

	case ast.Expr:
		// Condition expressions and range key/value binding idents.
		if role, ok := ev.rangeBind[n]; ok {
			iv := FullInterval()
			if role.isKey {
				iv = Interval{0, maxInt63} // indices are non-negative
			} else if ev.Elem != nil {
				if e, ok := ev.Elem(role.x, nil); ok {
					iv = e
				}
			}
			ia.assignTo(n, iv, nil, env)
			return
		}
		ev.Eval(n, env)
	}
}

// evalForEffect evaluates an expression statement, applying call havoc for
// calls no contract covers.
func (ia *IntervalAnalysis) evalForEffect(e ast.Expr, env *IntervalEnv) {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		args := make([]Interval, len(call.Args))
		for i, a := range call.Args {
			args[i] = ia.Eval.Eval(a, env)
		}
		if ia.Eval.Call != nil {
			if _, handled := ia.Eval.Call(call, args, env); handled {
				return // contract vouches the call leaves tracked paths alone
			}
		}
		ia.havocPointers(call, env)
		return
	}
	ia.Eval.Eval(e, env)
}

// havocCallArgs evaluates a call's arguments (so nested obligations are
// seen) and havocs pointer escapes, without consulting contracts — used for
// `go` statements whose call runs later.
func (ia *IntervalAnalysis) havocCallArgs(call *ast.CallExpr, env *IntervalEnv) {
	for _, a := range call.Args {
		ia.Eval.Eval(a, env)
	}
	ia.havocPointers(call, env)
}

// havocPointers forgets paths a call may mutate: any `&x` argument's base.
func (ia *IntervalAnalysis) havocPointers(call *ast.CallExpr, env *IntervalEnv) {
	for _, a := range call.Args {
		if u, ok := ast.Unparen(a).(*ast.UnaryExpr); ok && u.Op == token.AND {
			if k, ok := ia.Eval.Key(u.X, env); ok {
				env.DropBase(k.Obj)
			}
		}
	}
}

func (ia *IntervalAnalysis) assignStmt(n *ast.AssignStmt, env *IntervalEnv) {
	ev := ia.Eval
	switch {
	case n.Tok == token.DEFINE || n.Tok == token.ASSIGN:
		if len(n.Lhs) == len(n.Rhs) {
			// Evaluate all RHS first (tuple semantics), then assign.
			vals := make([]Interval, len(n.Rhs))
			for i, r := range n.Rhs {
				vals[i] = ev.Eval(r, env)
			}
			for i := range n.Lhs {
				ia.assignTo(n.Lhs[i], vals[i], n.Rhs[i], env)
			}
			return
		}
		if len(n.Rhs) == 1 {
			var vals []Interval
			if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
				vals = ev.EvalCall(call, env)
			}
			for i := range n.Lhs {
				iv := FullInterval()
				if i < len(vals) {
					iv = vals[i]
				}
				ia.assignTo(n.Lhs[i], iv, nil, env)
			}
		}
	default:
		// Compound assignment x op= e desugars to x = x op e.
		if len(n.Lhs) != 1 || len(n.Rhs) != 1 {
			return
		}
		op := compoundOp(n.Tok)
		x := ev.Eval(n.Lhs[0], env)
		y := ev.Eval(n.Rhs[0], env)
		ia.assignTo(n.Lhs[0], ia.arith(n.Lhs[0], op, x, y), nil, env)
	}
}

// arith applies a desugared binary op for compound assignment and inc/dec,
// reporting wraps against the mutated lvalue expression.
func (ia *IntervalAnalysis) arith(typed ast.Expr, op token.Token, x, y Interval) Interval {
	ev := ia.Eval
	unsigned := isUnsignedType(ev.typeOf(typed))
	switch op {
	case token.ADD:
		hi, hiOver := addOver(x.Hi, y.Hi)
		lo, loOver := addOver(x.Lo, y.Lo)
		if unsigned {
			switch {
			case !hiOver:
				return Interval{lo, hi}
			case loOver:
				ev.wrap(typed, token.ADD, true)
				return Interval{lo, hi}
			default:
				ev.wrap(typed, token.ADD, false)
				return FullInterval()
			}
		}
		if !x.IsFull() && !y.IsFull() && !hiOver && hi <= maxInt63 {
			return Interval{lo, hi}
		}
		return FullInterval()
	case token.SUB:
		if x.Lo >= y.Hi {
			return Interval{x.Lo - y.Hi, x.Hi - y.Lo}
		}
		if unsigned {
			if x.Hi < y.Lo {
				ev.wrap(typed, token.SUB, true)
				return Interval{x.Lo - y.Hi, x.Hi - y.Lo}
			}
			ev.wrap(typed, token.SUB, false)
		}
		return FullInterval()
	default:
		// Rarer compound ops (*=, <<=, ...) fall back to no claim.
		return FullInterval()
	}
}

func compoundOp(tok token.Token) token.Token {
	switch tok {
	case token.ADD_ASSIGN:
		return token.ADD
	case token.SUB_ASSIGN:
		return token.SUB
	case token.MUL_ASSIGN:
		return token.MUL
	case token.QUO_ASSIGN:
		return token.QUO
	case token.REM_ASSIGN:
		return token.REM
	case token.AND_ASSIGN:
		return token.AND
	case token.OR_ASSIGN:
		return token.OR
	case token.XOR_ASSIGN:
		return token.XOR
	case token.SHL_ASSIGN:
		return token.SHL
	case token.SHR_ASSIGN:
		return token.SHR
	}
	return token.ILLEGAL
}

// assignTo stores v into the lvalue lhs: keyed paths get a strong update
// (and the StoreKey hook), unkeyable index stores go to the StoreElem hook,
// and `p := &global` records an alias. rhs is the source expression when the
// assignment came from a plain pair (used for alias detection); nil
// otherwise.
func (ia *IntervalAnalysis) assignTo(lhs ast.Expr, v Interval, rhs ast.Expr, env *IntervalEnv) {
	ev := ia.Eval
	lhs = ast.Unparen(lhs)
	if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
		return
	}

	// Alias: c := &nttCRT (or c = &nttCRT) lets later c.f reads and writes
	// resolve to nttCRT's paths.
	if rhs != nil {
		if u, ok := ast.Unparen(rhs).(*ast.UnaryExpr); ok && u.Op == token.AND {
			if target, ok := ast.Unparen(u.X).(*ast.Ident); ok {
				if lhsID, ok := lhs.(*ast.Ident); ok {
					from := ev.Info.ObjectOf(lhsID)
					to := ev.Info.ObjectOf(target)
					if from != nil && to != nil {
						env.SetAlias(from, to)
						return
					}
				}
			}
		}
	}

	if k, ok := ev.Key(lhs, env); ok {
		if ev.reporting && ev.StoreKey != nil {
			ev.StoreKey(lhs, k, v, env)
		}
		env.Set(k, v)
		return
	}
	if idx, ok := lhs.(*ast.IndexExpr); ok {
		ev.Eval(idx.Index, env)
		if ev.reporting && ev.StoreElem != nil {
			ev.StoreElem(idx, v, env)
		}
	}
}

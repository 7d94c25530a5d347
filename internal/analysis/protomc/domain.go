package protomc

// domain.go is protomc's evaluator domain: concrete process state. The
// shared evaluator (framework/eval.go) keeps everything that shapes
// communication exact — ranks, group arithmetic, loop counters, tags,
// lengths — and this domain adds what the model checker needs on top:
//
//   - payload scalars (big integers, payload vector entries) are opaque,
//     except that small integers encoded with FromInt64 stay decodable (the
//     straggler decision protocol sends column choices that way);
//   - the numeric kernels the protocols call with concrete arguments
//     (points, toom, mat, rat, erasure constructors) run natively by
//     reflection, so interpolation matrices and evaluation point sets are
//     bit-exact; with opaque arguments they fall back to the boundary's
//     result shapes;
//   - the transport verbs of a *Proc are served by the model checker
//     (checker.go);
//   - a branch whose condition is unknown (a predicate on opaque data)
//     follows two sound policies: an arm that merely returns an error is
//     assumed not taken (the local-failure-free assumption: arithmetic
//     invariants are other analyzers' jobs), and when both arms are
//     communication-free the branch is skipped, with every variable either
//     arm assigns smeared to unknown. An arm is communication-free when no
//     call under it may communicate (framework.Summaries.MayCommunicate),
//     which counts every call the call graph cannot follow: a call through
//     a func-typed value, a method of an interface declared outside the
//     model boundary;
//   - a loop whose trip count is unknown cannot be modeled.
//
// Anything else aborts the run with a framework.EvalError, which the
// checker surfaces as a visible diagnostic rather than silently assuming
// the tree clean.

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"

	"repro/internal/analysis/framework"
	"repro/internal/bigint"
	"repro/internal/erasure"
	"repro/internal/mat"
	"repro/internal/points"
	"repro/internal/rat"
	"repro/internal/toom"
)

type Value = framework.Value

// Opaque abstracts one payload scalar (a bigint.Int). Known is set when the
// value provably equals FromInt64(V).
type Opaque struct {
	Known bool
	V     int64
}

// Native wraps a real Go value (toom.Algorithm, points.Point, rat.Rat,
// mat.Matrix, erasure.Code) bridged by reflection.
type Native struct{ V any }

// ProcVal is the model processor handle; its transport verbs are served by
// the checker.
type ProcVal struct{ mp *modelProc }

// domain is protomc's evaluator domain. Model processors are reached
// through their ProcVal handles, so host-side world construction uses the
// same domain.
type domain struct{}

func newEval(sums *framework.Summaries, fuel *int64) *framework.Eval {
	return &framework.Eval{Sums: sums, D: &domain{}, Fuel: fuel}
}

// The zero bigint.Int (and fixture stand-ins named Int) is the known
// integer 0 — IsZero on it must stay decidable.
func (d *domain) Zero(t types.Type) (Value, bool) {
	if _, ok := t.Underlying().(*types.Struct); ok && framework.NamedTypeName(t) == "Int" {
		return Opaque{Known: true}, true
	}
	return nil, false
}

func (d *domain) Scalar() Value                      { return Opaque{} }
func (d *domain) Vector(framework.Int) (Value, bool) { return nil, false }
func (d *domain) Mark() any                          { return nil }
func (d *domain) JoinBreaks([]any)                   {}
func (d *domain) Cond(*framework.Eval, *framework.Scope, *ast.BinaryExpr) (framework.Bool, bool) {
	return framework.Bool{}, false
}

// Finish: without joins a frame returns exactly once.
func (d *domain) Finish(_ *framework.Eval, exits []framework.Exit, _ token.Pos) []Value {
	return exits[len(exits)-1].Vals
}

// Opaque is an opaque numeric value (rat.Rat, a partially known matrix):
// anything protocol-shaped would need concrete structure, and concrete
// calls never reach the shape fallback — a protocol that ranges over or
// indexes such a value fails visibly there.
func (d *domain) Opaque(types.Type) Value { return Opaque{} }

// Op: payload scalars are closed under arithmetic and undecidable under
// comparison (payload values never steer communication — branching on an
// unknown bool meets the branch policy); natives expose their fields.
func (d *domain) Op(ev *framework.Eval, op any, x Value, args []Value, e ast.Expr) Value {
	if tok, ok := op.(token.Token); ok && len(args) == 1 {
		_, lo := x.(Opaque)
		_, ro := args[0].(Opaque)
		switch tok {
		case token.EQL, token.NEQ:
			switch r := args[0].(type) {
			case framework.Nil:
				if _, ok := x.(Opaque); !ok {
					return framework.KnownBool(tok == token.NEQ) // natives and procs are never nil
				}
			case ProcVal:
				if l, ok := x.(ProcVal); ok {
					return framework.KnownBool((l.mp == r.mp) == (tok == token.EQL))
				}
			default:
				if _, isNil := x.(framework.Nil); isNil && !ro {
					return framework.KnownBool(tok == token.NEQ)
				}
			}
			return framework.Bool{}
		case token.LSS, token.LEQ, token.GTR, token.GEQ:
			if (lo || ro) && arith(x) && arith(args[0]) {
				return framework.Bool{}
			}
		default:
			if (lo || ro) && arith(x) && arith(args[0]) {
				return Opaque{}
			}
		}
	}
	if op == framework.OpField {
		if n, ok := x.(Native); ok && len(args) == 0 {
			return nativeField(ev, n, e.(*ast.SelectorExpr))
		}
	}
	if op == framework.OpIndex {
		if _, ok := x.(*framework.Slice); ok {
			ev.Fail(e.Pos(), "index depends on opaque data")
		}
	}
	ev.Fail(e.Pos(), "%v on %T is not modeled", op, x)
	return nil
}

func arith(v Value) bool {
	switch v.(type) {
	case Opaque, framework.Int:
		return true
	}
	return false
}

// Branch applies the two unknown-condition policies.
func (d *domain) Branch(ev *framework.Eval, sc *framework.Scope, st *ast.IfStmt) framework.Flow {
	if d.errorArm(ev, st.Body) {
		return ev.Exec(sc, st.Else)
	}
	if st.Else != nil && d.errorArm(ev, st.Else) {
		return ev.Exec(sc, st.Body)
	}
	if d.commFree(ev, st.Body) && d.commFree(ev, st.Else) {
		smearAssigned(ev, sc, st.Body)
		if st.Else != nil {
			smearAssigned(ev, sc, st.Else)
		}
		return framework.FlowNormal
	}
	ev.Fail(st.Cond.Pos(), "branch on opaque data guards communication (cannot soundly skip)")
	return framework.FlowNormal
}

func (d *domain) Loop(ev *framework.Eval, _ *framework.Scope, st ast.Stmt, x Value) framework.Flow {
	if r, ok := st.(*ast.RangeStmt); ok {
		if _, isInt := x.(framework.Int); isInt {
			ev.Fail(r.X.Pos(), "range over unknown integer")
		}
		ev.Fail(r.X.Pos(), "range over %T is not modeled", x)
	}
	ev.Fail(st.(*ast.ForStmt).Cond.Pos(), "loop condition not concretely decidable")
	return framework.FlowNormal
}

// errorArm reports whether stmt is a block whose final statement returns a
// non-nil value in the enclosing function's trailing error result, without
// communicating on its way out.
func (d *domain) errorArm(ev *framework.Eval, stmt ast.Stmt) bool {
	blk, ok := stmt.(*ast.BlockStmt)
	if !ok || len(blk.List) == 0 {
		return false
	}
	ret, ok := blk.List[len(blk.List)-1].(*ast.ReturnStmt)
	if !ok || len(ret.Results) == 0 {
		return false
	}
	sig := ev.Frame().Sig
	if sig == nil || sig.Results().Len() == 0 {
		return false
	}
	if framework.NamedTypeName(sig.Results().At(sig.Results().Len()-1).Type()) != "error" {
		return false
	}
	if id, ok := ast.Unparen(ret.Results[len(ret.Results)-1]).(*ast.Ident); ok && id.Name == "nil" {
		return false
	}
	return d.commFree(ev, blk)
}

// commFree reports that no call under stmt can communicate
// (Summaries.MayCommunicate).
func (d *domain) commFree(ev *framework.Eval, stmt ast.Stmt) bool {
	return stmt == nil || !ev.Sums.MayCommunicate(ev.Pkg().Info, stmt)
}

// smearAssigned sets every variable a skipped arm assigns to the unknown
// variant of its current value.
func smearAssigned(ev *framework.Eval, sc *framework.Scope, stmt ast.Stmt) {
	smear := func(e ast.Expr) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		if c := sc.Lookup(ev.Object(id)); c != nil {
			ev.SetCell(c, unknownVariant(c.V))
		}
	}
	ast.Inspect(stmt, func(m ast.Node) bool {
		switch s := m.(type) {
		case *ast.AssignStmt:
			for _, l := range s.Lhs {
				smear(l)
			}
		case *ast.IncDecStmt:
			smear(s.X)
		}
		return true
	})
}

func unknownVariant(v Value) Value {
	switch v.(type) {
	case framework.Int:
		return framework.Int{}
	case framework.Bool:
		return framework.Bool{}
	case framework.Str:
		return framework.Str{}
	case framework.Float:
		return framework.Float{}
	case Opaque:
		return Opaque{}
	}
	return v
}

// Call serves the machine.Proc surface (and the miniature fixture
// stand-ins, recognized by their model handle) against the model checker.
func (d *domain) Call(ev *framework.Eval, fn *types.Func, recv Value, args []Value, call *ast.CallExpr) ([]Value, bool) {
	pv, ok := recv.(ProcVal)
	if !ok {
		return nil, false
	}
	mp, pos := pv.mp, call.Pos()
	args = framework.Spread(args, call)
	switch fn.Name() {
	case "Send":
		to := intArg(ev, args[0], pos, "send destination rank")
		tag := strArg(ev, args[1], pos, "send tag")
		var payload Value = framework.Nil{}
		if len(args) > 2 {
			payload = copyPayload(args[2])
		}
		return []Value{mp.opSend(int(to), tag, payload, pos)}, true
	case "Recv":
		from := intArg(ev, args[0], pos, "recv source rank")
		tag := strArg(ev, args[1], pos, "recv tag")
		return []Value{mp.opRecv(int(from), tag, pos), framework.Nil{}}, true
	case "RecvDeadline":
		from := intArg(ev, args[0], pos, "recv source rank")
		tag := strArg(ev, args[1], pos, "recv tag")
		payload, onTime := mp.opRecvDeadline(int(from), tag, pos)
		return []Value{payload, framework.KnownBool(onTime), framework.Nil{}}, true
	case "Barrier":
		phase := strArg(ev, args[0], pos, "barrier phase")
		return []Value{mp.opBarrier(phase, pos), framework.Nil{}}, true
	case "ID":
		return []Value{framework.KnownInt(int64(mp.id))}, true
	case "P":
		return []Value{framework.KnownInt(int64(len(mp.ck.procs)))}, true
	case "Clock":
		return []Value{framework.Float{Known: true}}, true
	case "FaultCount":
		return []Value{framework.KnownInt(int64(mp.faultCount))}, true
	case "Work", "Mark":
		return nil, true
	case "Store":
		mp.store[strArg(ev, args[0], pos, "store key")] = copyPayload(args[1])
		return []Value{framework.Nil{}}, true
	case "Load":
		v, ok := mp.store[strArg(ev, args[0], pos, "load key")]
		if !ok {
			v = framework.Nil{}
		}
		return []Value{v, framework.KnownBool(ok)}, true
	case "Free":
		delete(mp.store, strArg(ev, args[0], pos, "free key"))
		return nil, true
	case "MemoryWords":
		return []Value{framework.Int{}}, true
	}
	ev.Fail(pos, "Proc method %s is not modeled", fn.Name())
	return nil, false
}

func intArg(ev *framework.Eval, v Value, pos token.Pos, what string) int64 {
	c, ok := framework.ConstOf(v)
	if !ok {
		ev.Fail(pos, "%s is not a concrete integer (%T)", what, v)
	}
	return c
}

func strArg(ev *framework.Eval, v Value, pos token.Pos, what string) string {
	s, ok := v.(framework.Str)
	if !ok || !s.Known {
		ev.Fail(pos, "%s depends on opaque data", what)
	}
	return s.V
}

// copyPayload deep-copies the value shapes that cross the model transport,
// so a receiver can never mutate a sender's state through aliasing.
func copyPayload(v Value) Value {
	switch x := v.(type) {
	case *framework.Slice:
		out := make([]Value, len(x.Elems))
		for i, e := range x.Elems {
			out[i] = copyPayload(e)
		}
		return framework.NewSlice(out)
	case *framework.Struct:
		f := make(map[string]Value, len(x.Fields))
		for k, e := range x.Fields {
			f[k] = copyPayload(e)
		}
		return &framework.Struct{Type: x.Type, PkgPath: x.PkgPath, Fields: f}
	}
	return v
}

// ---------------------------------------------------------------------------
// The native bridge: this domain's measure of the modeled arithmetic.

// nativeRegistry maps FuncKeys of package-level bridged functions to the
// real implementations. Only functions whose arguments are protocol-concrete
// (ranks, sizes, survivor sets, point lists) need to be here; everything
// else resolves through the boundary's result shapes.
var nativeRegistry = map[string]any{
	"repro/internal/erasure.New":                   erasure.New,
	"repro/internal/mat.New":                       mat.New,
	"repro/internal/points.EvalMatrix":             points.EvalMatrix,
	"repro/internal/points.Finite":                 points.Finite,
	"repro/internal/points.FiniteInt64":            points.FiniteInt64,
	"repro/internal/points.Infinity":               points.Infinity,
	"repro/internal/points.Interpolation":          points.Interpolation,
	"repro/internal/points.Standard":               points.Standard,
	"repro/internal/points.StandardWithRedundancy": points.StandardWithRedundancy,
	"repro/internal/points.Valid":                  points.Valid,
	"repro/internal/rat.FromInt64":                 rat.FromInt64,
	"repro/internal/rat.One":                       rat.One,
	"repro/internal/rat.Zero":                      rat.Zero,
	"repro/internal/toom.IntRows":                  toom.IntRows,
	"repro/internal/toom.MustNew":                  toom.MustNew,
	"repro/internal/toom.New":                      toom.New,
	"repro/internal/toom.NewWithPoints":            toom.NewWithPoints,
	"repro/internal/toom.ScaledRows":               toom.ScaledRows,
}

var bigintType = reflect.TypeOf(bigint.Int{})

// Modeled runs a modeled call: decodable methods of known payload scalars,
// native methods and registry functions with concrete arguments, the
// small-integer bigint constructors, and otherwise the boundary's result
// shapes.
func (d *domain) Modeled(ev *framework.Eval, fn *types.Func, recv Value, args []Value, call *ast.CallExpr) []Value {
	key := framework.FuncKey(fn)
	switch r := recv.(type) {
	case Opaque:
		if r.Known {
			switch fn.Name() {
			case "Int64":
				// Int64 decodes a FromInt64-encoded value: the straggler
				// decision protocol's column indices make this round trip exact.
				return []Value{framework.KnownInt(r.V), framework.KnownBool(true)}
			case "IsZero":
				return []Value{framework.KnownBool(r.V == 0)}
			case "Sign":
				return []Value{framework.KnownInt(int64(sign(r.V)))}
			}
		}
	case Native:
		if out, ok := invoke(ev, nativeMethod(ev, r, fn.Name(), call.Pos()), args, call.Pos()); ok {
			return out
		}
	case nil:
		if f, ok := nativeRegistry[key]; ok {
			if out, ok := invoke(ev, reflect.ValueOf(f), args, call.Pos()); ok {
				return out
			}
		}
		switch key {
		case "repro/internal/bigint.Zero":
			return []Value{Opaque{Known: true}}
		case "repro/internal/bigint.One":
			return []Value{Opaque{Known: true, V: 1}}
		case "repro/internal/bigint.FromInt64", "repro/internal/bigint.FromUint64":
			c, ok := framework.ConstOf(args[0])
			return []Value{Opaque{Known: ok, V: c}}
		}
	}
	return ev.ModeledResults(fn, args, call)
}

func sign(v int64) int {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	}
	return 0
}

func nativeMethod(ev *framework.Eval, n Native, name string, pos token.Pos) reflect.Value {
	rv := reflect.ValueOf(n.V)
	m := rv.MethodByName(name)
	if !m.IsValid() && rv.Kind() != reflect.Pointer {
		// Pointer-receiver method on an addressable copy.
		pv := reflect.New(rv.Type())
		pv.Elem().Set(rv)
		m = pv.MethodByName(name)
	}
	if !m.IsValid() {
		ev.Fail(pos, "native method %T.%s is not available", n.V, name)
	}
	return m
}

// invoke calls fn natively when every argument is concretely
// materializable; ok is false when any argument is opaque.
func invoke(ev *framework.Eval, fn reflect.Value, args []Value, pos token.Pos) (out []Value, ok bool) {
	ft := fn.Type()
	if ft.IsVariadic() || len(args) != ft.NumIn() {
		return nil, false
	}
	rargs := make([]reflect.Value, len(args))
	for i, a := range args {
		if rargs[i], ok = toNative(a, ft.In(i)); !ok {
			return nil, false
		}
	}
	defer func() {
		if r := recover(); r != nil {
			ev.Fail(pos, "native call panicked: %v", r)
		}
	}()
	res := fn.Call(rargs)
	out = make([]Value, len(res))
	for i, r := range res {
		out[i] = fromNative(ev, r, pos)
	}
	return out, true
}

// toNative materializes a value as a reflect value of type t.
func toNative(v Value, t reflect.Type) (reflect.Value, bool) {
	switch x := v.(type) {
	case Native:
		rv := reflect.ValueOf(x.V)
		if rv.Type().AssignableTo(t) {
			return rv, true
		}
		if rv.Type().ConvertibleTo(t) && rv.Kind() == t.Kind() {
			return rv.Convert(t), true
		}
	case framework.Int:
		c, ok := x.Const()
		switch {
		case !ok:
		case t.Kind() >= reflect.Int && t.Kind() <= reflect.Int64,
			t.Kind() == reflect.Float32 || t.Kind() == reflect.Float64,
			t.Kind() >= reflect.Uint && t.Kind() <= reflect.Uint64 && c >= 0:
			return reflect.ValueOf(c).Convert(t), true
		}
	case framework.Float:
		if x.Known && (t.Kind() == reflect.Float64 || t.Kind() == reflect.Float32) {
			return reflect.ValueOf(x.V).Convert(t), true
		}
	case framework.Bool:
		if x.Known && t.Kind() == reflect.Bool {
			return reflect.ValueOf(x.V), true
		}
	case framework.Str:
		if x.Known && t.Kind() == reflect.String {
			return reflect.ValueOf(x.V).Convert(t), true
		}
	case Opaque:
		if x.Known && t == bigintType {
			return reflect.ValueOf(bigint.FromInt64(x.V)), true
		}
	case framework.Nil:
		switch t.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Interface, reflect.Func, reflect.Chan:
			return reflect.Zero(t), true
		}
	case *framework.Slice:
		if t.Kind() != reflect.Slice {
			break
		}
		out := reflect.MakeSlice(t, len(x.Elems), len(x.Elems))
		for i, e := range x.Elems {
			ev, ok := toNative(e, t.Elem())
			if !ok {
				return reflect.Value{}, false
			}
			out.Index(i).Set(ev)
		}
		return out, true
	}
	return reflect.Value{}, false
}

var errorType = reflect.TypeOf((*error)(nil)).Elem()

// fromNative abstracts a native result back into the value domain. Big
// integers become opaque scalars; structured numeric values (points,
// rationals, matrices, codes, algorithms) stay native so later concrete
// calls remain exact.
func fromNative(ev *framework.Eval, rv reflect.Value, pos token.Pos) Value {
	if !rv.IsValid() {
		return framework.Nil{}
	}
	if rv.Type() == errorType || (rv.Kind() == reflect.Interface && rv.Type().Implements(errorType)) {
		if rv.IsNil() {
			return framework.Nil{}
		}
		return framework.Err{Msg: rv.Interface().(error).Error()}
	}
	if rv.Kind() == reflect.Interface {
		if rv.IsNil() {
			return framework.Nil{}
		}
		rv = rv.Elem()
	}
	if rv.Type() == bigintType {
		return Opaque{}
	}
	switch rv.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return framework.KnownInt(rv.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return framework.KnownInt(int64(rv.Uint()))
	case reflect.Bool:
		return framework.KnownBool(rv.Bool())
	case reflect.String:
		return framework.KnownStr(rv.String())
	case reflect.Float32, reflect.Float64:
		return framework.Float{Known: true, V: rv.Float()}
	case reflect.Slice:
		out := make([]Value, rv.Len())
		for i := range out {
			out[i] = fromNative(ev, rv.Index(i), pos)
		}
		return framework.NewSlice(out)
	case reflect.Pointer:
		if rv.IsNil() {
			return framework.Nil{}
		}
		return Native{V: rv.Interface()}
	case reflect.Struct:
		return Native{V: rv.Interface()}
	}
	ev.Fail(pos, "native result kind %v is not modeled", rv.Kind())
	return nil
}

// nativeField reads an exported struct field of a native value.
func nativeField(ev *framework.Eval, n Native, sel *ast.SelectorExpr) Value {
	rv := reflect.Indirect(reflect.ValueOf(n.V))
	if rv.Kind() != reflect.Struct || !rv.FieldByName(sel.Sel.Name).IsValid() {
		ev.Fail(sel.Pos(), "native %T has no field %s", n.V, sel.Sel.Name)
	}
	return fromNative(ev, rv.FieldByName(sel.Sel.Name), sel.Pos())
}

package framework

// boundary.go declares the machine/arithmetic boundary once for every
// evaluator domain: which packages are interpreted from source, which are
// modeled, the verbs every domain shares (fmt/errors/sort, machine.New and
// Machine.Run), the result shape of each modeled call, and the
// multiplication worlds both analyzers instantiate through the real
// Multiply entries. A domain adds only its own measure: what a payload
// scalar, a limb vector and an opaque value are.

import (
	"errors"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ModelBoundaryPkg reports packages whose internals are never interpreted:
// the machine layer (its verbs are the analyzers' primitives),
// the arithmetic kernels (modeled by result shape, with each domain's
// measure), and the host-side tooling packages. Their goroutines and
// channels are below the protocol abstraction, so their blockers do not
// disqualify a caller.
func ModelBoundaryPkg(path string) bool {
	switch path[strings.LastIndex(path, "/")+1:] {
	case "machine", "bigint", "toom", "points", "erasure", "mat", "rat",
		"multistep", "toomgraph", "softfault", "workpool",
		"crosscheck", "benchenv":
		return true
	}
	return false
}

// interpretedPkg reports the protocol packages whose functions must be
// interpreted from source: a callee there without a call-graph node means
// the load set is incomplete.
func interpretedPkg(path string) bool {
	switch path[strings.LastIndex(path, "/")+1:] {
	case "collective", "parallel", "ftparallel", "ftengine", "ftmatmul":
		return true
	}
	return false
}

// runCapture unwinds a host evaluation at Machine.Run.
type runCapture struct {
	p    int64
	prog Value
}

// sharedVerb serves the calls every domain models the same way: string
// formatting and errors, sorting, and the machine constructor and Run.
// Machine.Run is matched by receiver type name, so fixture stand-ins
// follow the same rule.
func (ev *Eval) sharedVerb(fn *types.Func, recv Value, args []Value, call *ast.CallExpr, pos token.Pos) ([]Value, bool) {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if NamedTypeName(sig.Recv().Type()) == "Machine" && fn.Name() == "Run" {
			m, ok := recv.(Machine)
			if !ok || m.P <= 0 || len(args) != 1 {
				ev.Fail(pos, "Machine.Run on an unmodeled machine")
			}
			panic(runCapture{p: m.P, prog: args[0]})
		}
		return nil, false
	}
	if fn.Pkg() == nil {
		return nil, false
	}
	args = Spread(args, call)
	switch fn.Pkg().Name() + "." + fn.Name() {
	case "fmt.Sprintf", "fmt.Sprint":
		s, ok := render(fn.Name(), args)
		return []Value{Str{Known: ok, V: s}}, true
	case "fmt.Errorf":
		s, ok := render("Sprintf", args)
		if !ok {
			s = "error"
		}
		return []Value{Err{Msg: s}}, true
	case "errors.New":
		s, ok := args[0].(Str)
		if !ok || !s.Known {
			s.V = "error"
		}
		return []Value{Err{Msg: s.V}}, true
	case "sort.Ints", "sort.Strings":
		ev.sort(args[0], nil, pos)
		return nil, true
	case "sort.Slice":
		ev.sort(args[0], args[1], pos)
		return nil, true
	case "machine.New":
		cfg, ok := args[0].(*Struct)
		p, pok := ConstOf(cfg.Fields["P"])
		if !ok || !pok {
			ev.Fail(pos, "machine.New with an unknown processor count")
		}
		if len(args) > 1 {
			if _, isNil := args[1].(Nil); !isNil {
				ev.Fail(pos, "machine.New with a fault plan (fault plans are the model checker's to choose)")
			}
		}
		return []Value{Machine{P: p}, Nil{}}, true
	}
	return nil, false
}

// render runs the real fmt over concretized values, so tags and cache keys
// built with Sprintf/Sprint render exactly as at runtime. ok is false when
// an operand is not concretely printable.
func render(name string, args []Value) (string, bool) {
	conc := make([]any, len(args))
	for i, a := range args {
		c, ok := concretize(a)
		if !ok {
			return "", false
		}
		conc[i] = c
	}
	if name == "Sprint" {
		return fmt.Sprint(conc...), true
	}
	format, ok := conc[0].(string)
	if !ok {
		return "", false
	}
	return fmt.Sprintf(format, conc[1:]...), true
}

func concretize(v Value) (any, bool) {
	switch x := v.(type) {
	case Int:
		return x.Const()
	case Float:
		return x.V, x.Known
	case Str:
		return x.V, x.Known
	case Bool:
		return x.V, x.Known
	case Err:
		return errors.New(x.Msg), true
	case Nil:
		return nil, true
	case *Slice:
		out := make([]any, len(x.Elems))
		for i, e := range x.Elems {
			c, ok := concretize(e)
			if !ok {
				return nil, false
			}
			out[i] = c
		}
		return out, true
	}
	return nil, false
}

// sort sorts a slice in place: by value for sort.Ints/Strings (less nil),
// with the interpreted comparator for sort.Slice. The order must be
// decidable — the modeled code sorts exactly where order matters.
func (ev *Eval) sort(x, less Value, pos token.Pos) {
	s, ok := x.(*Slice)
	if !ok {
		if _, isNil := x.(Nil); isNil {
			return
		}
		ev.Fail(pos, "sort of %T", x)
	}
	lessAt := func(i, j int) bool {
		var b Value
		if less != nil {
			out := ev.CallValue(less, []Value{KnownInt(int64(i)), KnownInt(int64(j))}, nil, pos)
			if len(out) == 1 {
				b = out[0]
			}
		} else {
			b = ev.compare(token.LSS, s.Elems[i], s.Elems[j], nil)
		}
		if r, ok := b.(Bool); ok && r.Known {
			return r.V
		}
		ev.Fail(pos, "sort order depends on opaque data")
		return false
	}
	// Insertion sort: deterministic, and the slices involved are tiny.
	for i := 1; i < len(s.Elems); i++ {
		for j := i; j > 0 && lessAt(j, j-1); j-- {
			s.Elems[j], s.Elems[j-1] = s.Elems[j-1], s.Elems[j]
		}
	}
}

// ModeledResults is the boundary's result shape for a modeled call. Calls
// with a declared shape come first: Acc.AppendValue(slab) returns the
// accumulated value as a payload scalar and slab extended by its limbs
// (one entry: every entry occupies one word in the cost model's unit-word
// worlds). Every other result is typed from the signature:
// errors are nil (the local-failure-free assumption: a kernel failing on
// valid data is an arithmetic property, checked by tests and other
// analyzers), numbers, booleans and strings unknown, bigint.Int digits a
// payload scalar and limb vectors of unknown length in the domain's
// measure, anything else the domain's opaque value of that type.
func (ev *Eval) ModeledResults(fn *types.Func, args []Value, call *ast.CallExpr) []Value {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() != nil && NamedTypeName(sig.Recv().Type()) == "Acc" && fn.Name() == "AppendValue" {
		return []Value{ev.D.Scalar(), ev.appendTo(args[0], []Value{ev.D.Scalar()}, false, call)}
	}
	res := sig.Results()
	out := make([]Value, res.Len())
	for i := range out {
		out[i] = ev.ModeledResult(res.At(i).Type())
	}
	return out
}

// ModeledResult is the shape of one modeled result of type t.
func (ev *Eval) ModeledResult(t types.Type) Value {
	if NamedTypeName(t) == "error" {
		return Nil{}
	}
	if IsLimbVector(t) {
		if v, ok := ev.D.Vector(Int{}); ok {
			return v
		}
	}
	if NamedTypeName(t) == "Int" {
		return ev.D.Scalar()
	}
	if b, ok := t.Underlying().(*types.Basic); ok {
		info := b.Info()
		switch {
		case info&types.IsInteger != 0:
			return Int{}
		case info&types.IsBoolean != 0:
			return Bool{}
		case info&types.IsString != 0:
			return Str{}
		case info&types.IsFloat != 0:
			return Float{}
		}
	}
	return ev.D.Opaque(t)
}

// ---------------------------------------------------------------------------
// Multiplication worlds.

// MultiplyWorld is one finite configuration of a multiplication tier. Both
// analyzers instantiate it by interpreting the tier's real Multiply entry
// (parallel.Multiply, or ftparallel.Multiply when FT) up to its
// Machine.Run: costbound certifies the zero-fault worlds' costs, protomc
// model-checks the fault-tolerant ones under every tolerated fault plan.
type MultiplyWorld struct {
	Name      string
	FT        bool // ftparallel.Multiply vs parallel.Multiply
	P         int  // worker processors
	K         int  // Toom-Cook parameter
	Faults    int  // FT redundancy F
	DFSSteps  int
	Straggler bool // drop stragglers instead of coding (deadline receives)
}

// MultiplyWorlds is the world list: both tiers, with and without a DFS
// level, on the smallest legal grids, plus the straggler-dropping variant
// of the fault-tolerant tier. P=9 (a 3x3 grid) is within the model
// checker's semantics but outside its time budget; the P=3 grid already
// exercises every protocol role (worker, linear-code row,
// polynomial-code column).
func MultiplyWorlds() []MultiplyWorld {
	return []MultiplyWorld{
		{Name: "parallel/P3k2", P: 3, K: 2},
		{Name: "parallel/P3k2+dfs", P: 3, K: 2, DFSSteps: 1},
		{Name: "ftparallel/P3k2F1", FT: true, P: 3, K: 2, Faults: 1},
		{Name: "ftparallel/P3k2F1+dfs", FT: true, P: 3, K: 2, Faults: 1, DFSSteps: 1},
		{Name: "ftparallel/P3k2F1+straggler", FT: true, P: 3, K: 2, Faults: 1, Straggler: true},
	}
}

// Entry is the import path of the package whose Multiply runs the world.
func (w MultiplyWorld) Entry() string {
	if w.FT {
		return "repro/internal/ftparallel"
	}
	return "repro/internal/parallel"
}

// MultiplyWorldsFor returns the worlds whose Multiply entry the package at
// path declares.
func MultiplyWorldsFor(path string) []MultiplyWorld {
	var out []MultiplyWorld
	for _, w := range MultiplyWorlds() {
		if w.Entry() == path {
			out = append(out, w)
		}
	}
	return out
}

// stragglerSlack is the deadline slack of the straggler world: any
// positive value, since the checker abstracts time.
const stragglerSlack = 5

// MultiplyEntry finds the Multiply(a, b, opts) entry a package declares.
func MultiplyEntry(sums *Summaries, pkg *types.Package) *CGNode {
	if pkg == nil {
		return nil
	}
	obj, _ := pkg.Scope().Lookup("Multiply").(*types.Func)
	if obj == nil {
		return nil
	}
	return sums.Graph.Nodes[FuncKey(obj)]
}

// MultiplyArgs builds the entry arguments (a, b, opts) for a world: two
// payload scalars and the real Options type with the world's shape filled
// in; alg is the domain's Toom-Cook algorithm value.
func (ev *Eval) MultiplyArgs(entry *CGNode, w MultiplyWorld, alg Value) ([]Value, error) {
	sig, _ := entry.Fn.Type().(*types.Signature)
	if sig == nil || sig.Params().Len() != 3 {
		return nil, fmt.Errorf("entry %s does not look like Multiply(a, b, opts)", entry.Key)
	}
	opts, ok := ev.Zero(entry.Decl.Pos(), sig.Params().At(2).Type()).(*Struct)
	if !ok {
		return nil, fmt.Errorf("entry %s has a non-struct options parameter", entry.Key)
	}
	f := opts.Fields
	f["Alg"] = alg
	f["P"] = KnownInt(int64(w.P))
	f["DFSSteps"] = KnownInt(int64(w.DFSSteps))
	if w.FT {
		f["F"] = KnownInt(int64(w.Faults))
	}
	if w.Straggler {
		f["StragglerSlack"] = Float{Known: true, V: stragglerSlack}
	}
	return []Value{ev.D.Scalar(), ev.D.Scalar(), opts}, nil
}

// CaptureRun interprets an entry on the host up to its Machine.Run and
// returns the machine size and the SPMD program handed to Run. Everything
// after Run on the host (assembly, verification) is the runtime's
// read-out, outside both analyzers' models.
func (ev *Eval) CaptureRun(entry *CGNode, args []Value) (p int64, prog Value, err error) {
	defer func() {
		r := recover()
		switch x := r.(type) {
		case nil:
			return
		case runCapture:
			p, prog = x.p, x.prog
		case *EvalError:
			err = x
		case Missing:
			err = x
		default:
			panic(r)
		}
		ev.Reset()
	}()
	ev.CallNode(entry, nil, args, nil)
	return 0, nil, fmt.Errorf("%s returned without reaching Machine.Run", entry.Key)
}

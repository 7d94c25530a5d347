package framework

import (
	"go/ast"
	"go/token"
	"testing"
)

// solveInterval type-checks src, builds the CFG of the function named fn,
// seeds the entry environment via seed (given the parameter objects by
// name), solves, and returns everything a test needs to poke at facts.
func solveInterval(t *testing.T, src, fn string, seed map[string]Interval, tune func(*IntervalEval)) (*Package, *ast.FuncDecl, *CFG, *IntervalAnalysis, *FlowResult[*IntervalEnv]) {
	t.Helper()
	pkg := typeCheckPkg(t, "p", src)

	var fd *ast.FuncDecl
	FuncDecls(pkg.Files, func(d *ast.FuncDecl) {
		if d.Name.Name == fn {
			fd = d
		}
	})
	if fd == nil {
		t.Fatalf("function %s not found", fn)
	}

	env := NewIntervalEnv()
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if iv, ok := seed[name.Name]; ok {
					obj := pkg.Info.Defs[name]
					if obj == nil {
						t.Fatalf("no object for param %s", name.Name)
					}
					env.Set(KeyOf(obj), iv)
				}
			}
		}
	}

	ev := &IntervalEval{Info: pkg.Info}
	ev.BindRanges(fd.Body)
	if tune != nil {
		tune(ev)
	}
	ia := &IntervalAnalysis{Eval: ev}
	cfg := NewCFG(fd.Body)
	return pkg, fd, cfg, ia, ia.Solve(cfg, env)
}

// factAtReturn returns the block-exit environment of the block holding the
// function's first return statement (the exit fact sees the block's own
// assignments, which matters for straight-line bodies).
func factAtReturn(t *testing.T, cfg *CFG, res *FlowResult[*IntervalEnv]) *IntervalEnv {
	t.Helper()
	for _, b := range cfg.Blocks {
		if returnStmt(b) != nil {
			return res.Out[b]
		}
	}
	t.Fatal("no return block")
	return nil
}

// localInterval evaluates the interval of the variable named v at env.
func localInterval(t *testing.T, pkg *Package, fd *ast.FuncDecl, env *IntervalEnv, v string) Interval {
	t.Helper()
	var found Interval
	ok := false
	ast.Inspect(fd, func(n ast.Node) bool {
		id, isID := n.(*ast.Ident)
		if !isID || id.Name != v || ok {
			return true
		}
		o := pkg.Info.ObjectOf(id)
		if o == nil {
			return true
		}
		if iv, has := env.Get(KeyOf(o)); has {
			found, ok = iv, true
		} else {
			found, ok = FullInterval(), true
		}
		return true
	})
	if !ok {
		t.Fatalf("variable %s not found", v)
	}
	return found
}

func TestIntervalLattice(t *testing.T) {
	a := NewInterval(10, 20)
	b := NewInterval(15, 40)
	if j := a.Join(b); j != NewInterval(10, 40) {
		t.Errorf("join = %v", j)
	}
	if m := a.Meet(b); m != NewInterval(15, 20) {
		t.Errorf("meet = %v", m)
	}
	if m := a.Meet(NewInterval(30, 50)); !m.IsEmpty() {
		t.Errorf("disjoint meet = %v, want empty", m)
	}
	if j := EmptyInterval().Join(a); j != a {
		t.Errorf("bottom join = %v", j)
	}
	// Widening pushes only the unstable bound to the extreme.
	w := NewInterval(0, 10).Widen(NewInterval(0, 11))
	if w != NewInterval(0, maxUint64) {
		t.Errorf("widen ascending hi = %v", w)
	}
	w = NewInterval(5, 10).Widen(NewInterval(3, 10))
	if w != NewInterval(0, 10) {
		t.Errorf("widen descending lo = %v", w)
	}
	w = NewInterval(5, 10).Widen(NewInterval(6, 9))
	if w != NewInterval(5, 10) {
		t.Errorf("widen stable = %v", w)
	}
}

// TestIntervalConditionalSubtract is the butterfly shape: after
// `u := l + t; if u >= twoP { u -= twoP }` the value is back in [0, 2p).
func TestIntervalConditionalSubtract(t *testing.T) {
	src := `package p
func butterfly(l, t, twoP uint64) uint64 {
	u := l + t
	if u >= twoP {
		u -= twoP
	}
	return u
}`
	const twoP = 200
	pkg, fd, cfg, _, res := solveInterval(t, src, "butterfly", map[string]Interval{
		"l":    {0, twoP - 1},
		"t":    {0, twoP - 1},
		"twoP": PointInterval(twoP),
	}, nil)
	got := localInterval(t, pkg, fd, factAtReturn(t, cfg, res), "u")
	want := NewInterval(0, twoP-1)
	if got != want {
		t.Errorf("u at return = %v, want %v", got, want)
	}
}

// TestIntervalWideningTermination pins the loop-carried case: a counter
// incremented every iteration has no finite fixpoint, so only widening makes
// the solve terminate. The test failing mode is a hang, which `go test`
// turns into a timeout; the assertions also check the widened facts are the
// sound ones.
func TestIntervalWideningTermination(t *testing.T) {
	src := `package p
func count(n int) uint64 {
	var s uint64
	for i := 0; i < n; i++ {
		s += 3
	}
	return s
}`
	pkg, fd, cfg, _, res := solveInterval(t, src, "count", nil, nil)
	got := localInterval(t, pkg, fd, factAtReturn(t, cfg, res), "s")
	// s starts at 0 and only grows: the sound loop-exit fact is [0, max].
	if got.Lo != 0 || got.Hi != maxUint64 {
		t.Errorf("s at return = %v, want [0, 2^64-1]", got)
	}
}

// TestIntervalLoopRefinement: the trailing-reduction loop
// `for u >= p { u -= p }` converges without widening and the exit edge
// refines u below p.
func TestIntervalLoopRefinement(t *testing.T) {
	src := `package p
func reduce(u, p uint64) uint64 {
	for u >= p {
		u -= p
	}
	return u
}`
	const p = 97
	pkg, fd, cfg, _, res := solveInterval(t, src, "reduce", map[string]Interval{
		"p": PointInterval(p),
	}, nil)
	got := localInterval(t, pkg, fd, factAtReturn(t, cfg, res), "u")
	want := NewInterval(0, p-1)
	if got != want {
		t.Errorf("u at return = %v, want %v", got, want)
	}
}

// TestIntervalNestedLoopNarrowing: widening the inner accumulator loop to ⊤
// must not destroy the outer loop's exit-edge refinement — the reduction
// variable still leaves the nest provably below p while the accumulator
// soundly reports the full range.
func TestIntervalNestedLoopNarrowing(t *testing.T) {
	src := `package p
func nested(u, p uint64) uint64 {
	var s uint64
	for u >= p {
		u -= p
		for i := 0; i < 8; i++ {
			s += u
		}
	}
	return s + u
}`
	const p = 97
	pkg, fd, cfg, _, res := solveInterval(t, src, "nested", map[string]Interval{
		"p": PointInterval(p),
	}, nil)
	env := factAtReturn(t, cfg, res)
	gotS := localInterval(t, pkg, fd, env, "s")
	if gotS.Lo != 0 || gotS.Hi != maxUint64 {
		t.Errorf("inner accumulator s at return = %v, want widened [0, 2^64-1]", gotS)
	}
	gotU := localInterval(t, pkg, fd, env, "u")
	if want := NewInterval(0, p-1); gotU != want {
		t.Errorf("outer reduction u at return = %v, want narrowed %v", gotU, want)
	}
}

func TestIntervalBranchRefinement(t *testing.T) {
	src := `package p
func f(x, lim uint64) (uint64, uint64) {
	var a, b uint64
	if x < lim && x >= 10 {
		a = x
	} else {
		b = x
	}
	return a, b
}`
	const lim = 50
	pkg, fd, cfg, _, res := solveInterval(t, src, "f", map[string]Interval{
		"lim": PointInterval(lim),
	}, nil)

	var thenBlk, elseBlk *Block
	for _, b := range cfg.Blocks {
		switch b.Kind {
		case "if.then":
			thenBlk = b
		case "if.else":
			elseBlk = b
		}
	}
	if thenBlk == nil || elseBlk == nil {
		t.Fatal("missing branch blocks")
	}
	gotThen := localInterval(t, pkg, fd, res.In[thenBlk], "x")
	if want := NewInterval(10, lim-1); gotThen != want {
		t.Errorf("x in then = %v, want %v", gotThen, want)
	}
	// The false edge of `a && b` cannot be split: x stays unconstrained.
	gotElse := localInterval(t, pkg, fd, res.In[elseBlk], "x")
	if !gotElse.IsFull() {
		t.Errorf("x in else = %v, want full", gotElse)
	}
}

// TestIntervalSignedNoClaim: refinement must not manufacture a
// non-negativity claim for a signed variable it knows nothing about.
func TestIntervalSignedNoClaim(t *testing.T) {
	src := `package p
func f(i int) int {
	var r int
	if i >= 5 {
		r = i
	}
	return r
}`
	pkg, fd, cfg, _, res := solveInterval(t, src, "f", nil, nil)
	var thenBlk *Block
	for _, b := range cfg.Blocks {
		if b.Kind == "if.then" {
			thenBlk = b
		}
	}
	got := localInterval(t, pkg, fd, res.In[thenBlk], "i")
	if !got.IsFull() {
		t.Errorf("signed i refined to %v; a full (no-claim) interval is required", got)
	}
}

// TestIntervalBitsContracts checks the name-matched math/bits contracts.
func TestIntervalBitsContracts(t *testing.T) {
	src := `package p
func Mul64(a, b uint64) (uint64, uint64) { return 0, 0 }
func Add64(a, b, c uint64) (uint64, uint64) { return 0, 0 }
func f(a, b uint64) (uint64, uint64) {
	hi, _ := Mul64(a, b)
	s, carry := Add64(a, b, 0)
	_ = s
	return hi, carry
}`
	pkg, fd, cfg, _, res := solveInterval(t, src, "f", map[string]Interval{
		"a": {0, 1000},
		"b": {0, 1000},
	}, nil)
	env := factAtReturn(t, cfg, res)
	if hi := localInterval(t, pkg, fd, env, "hi"); hi != PointInterval(0) {
		t.Errorf("Mul64 hi = %v, want 0 (operands too small to overflow)", hi)
	}
	if c := localInterval(t, pkg, fd, env, "carry"); c != PointInterval(0) {
		t.Errorf("Add64 carry = %v, want 0", c)
	}
}

// TestIntervalWrapHook: the diagnostic pass reports possible unsigned
// wraparound, and only for arithmetic the facts cannot bound.
func TestIntervalWrapHook(t *testing.T) {
	src := `package p
func f(a, b, c uint64) uint64 {
	x := a + b // may wrap: a, b unconstrained
	y := c + 1 // cannot wrap: c is bounded below 2^32
	return x + y
}`
	var wraps []token.Pos
	pkg, fd, cfg, ia, res := solveInterval(t, src, "f", map[string]Interval{
		"c": {0, 1 << 32},
	}, func(ev *IntervalEval) {
		ev.OnWrap = func(site ast.Expr, op token.Token, definite bool) {
			wraps = append(wraps, site.Pos())
		}
	})
	_, _ = pkg, fd
	ia.Report(cfg, res)
	// a+b and x+y may wrap; c+1 must not be flagged.
	if len(wraps) != 2 {
		t.Fatalf("got %d wrap reports, want 2", len(wraps))
	}
}

// TestIntervalElemContractAndStore: loads through the Elem hook carry the
// client contract; stores surface through StoreElem during Report.
func TestIntervalElemContractAndStore(t *testing.T) {
	src := `package p
func f(a []uint64, twoP uint64) {
	u := a[0] + a[1]
	if u >= twoP {
		u -= twoP
	}
	a[0] = u
}`
	const twoP = 200
	type store struct {
		iv Interval
	}
	var stores []store
	_, _, cfg, ia, res := solveInterval(t, src, "f", map[string]Interval{
		"twoP": PointInterval(twoP),
	}, func(ev *IntervalEval) {
		ev.Elem = func(base ast.Expr, site *ast.IndexExpr) (Interval, bool) {
			return NewInterval(0, twoP-1), true
		}
		ev.StoreElem = func(site *ast.IndexExpr, v Interval, env *IntervalEnv) {
			stores = append(stores, store{v})
		}
	})
	ia.Report(cfg, res)
	if len(stores) != 1 {
		t.Fatalf("got %d element stores, want 1", len(stores))
	}
	if got, want := stores[0].iv, NewInterval(0, twoP-1); got != want {
		t.Errorf("stored interval = %v, want %v", got, want)
	}
}

// TestIntervalRangeBinding: `for _, v := range xs` binds v to the client's
// element contract and the key to a non-negative claim.
func TestIntervalRangeBinding(t *testing.T) {
	src := `package p
func f(xs []uint64) uint64 {
	var m uint64
	for i, v := range xs {
		_ = i
		m = v
	}
	return m
}`
	pkg, fd, cfg, _, res := solveInterval(t, src, "f", nil, func(ev *IntervalEval) {
		ev.Elem = func(base ast.Expr, site *ast.IndexExpr) (Interval, bool) {
			return NewInterval(0, 9), true
		}
	})
	got := localInterval(t, pkg, fd, factAtReturn(t, cfg, res), "m")
	if want := NewInterval(0, 9); got != want {
		t.Errorf("m at return = %v, want %v", got, want)
	}
}

// TestIntervalAliasAndFields: field paths through a `c := &global` alias
// resolve to the global's seeded facts.
func TestIntervalAliasAndFields(t *testing.T) {
	src := `package p
var crt struct{ inv uint64 }
func f() uint64 {
	c := &crt
	return c.inv
}`
	pkg := typeCheckPkg(t, "p", src)
	var fd *ast.FuncDecl
	FuncDecls(pkg.Files, func(d *ast.FuncDecl) {
		if d.Name.Name == "f" {
			fd = d
		}
	})
	env := NewIntervalEnv()
	for id, obj := range pkg.Info.Defs {
		if id.Name == "crt" && obj != nil {
			env.Set(KeyOf(obj).WithField("inv"), NewInterval(1, 7))
		}
	}
	ev := &IntervalEval{Info: pkg.Info}
	ia := &IntervalAnalysis{Eval: ev}
	cfg := NewCFG(fd.Body)
	res := ia.Solve(cfg, env)
	retBlk := factAtReturn(t, cfg, res)
	// Evaluate the return expression under the fact at the return block.
	var retExpr ast.Expr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if r, ok := n.(*ast.ReturnStmt); ok && retExpr == nil {
			retExpr = r.Results[0]
		}
		return true
	})
	got := ev.Eval(retExpr, retBlk)
	if want := NewInterval(1, 7); got != want {
		t.Errorf("c.inv = %v, want %v", got, want)
	}
}

// TestSummaryReturnsBounds: constant-deriving helpers get a Returns bound,
// composed bottom-up; recursion stays unbounded.
func TestSummaryReturnsBounds(t *testing.T) {
	src := `package p
func lim() uint64 { return 1 << 10 }
func twice() uint64 { return lim() * 2 }
func deep() uint64 { return twice() + 1 }
func rec(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return rec(n-1) + 1
}
func open(n uint64) uint64 { return n }`
	pkg := typeCheckPkg(t, "p", src)
	sums := ComputeSummaries([]*Package{pkg})

	want := map[string]Interval{
		"lim":   PointInterval(1 << 10),
		"twice": PointInterval(1 << 11),
		"deep":  PointInterval(1<<11 + 1),
		"rec":   FullInterval(),
		"open":  FullInterval(),
	}
	found := 0
	for _, n := range sums.Graph.Nodes {
		w, ok := want[n.Fn.Name()]
		if !ok {
			continue
		}
		found++
		got := sums.Lookup(n.Key).Returns
		if !got.Equal(w) {
			t.Errorf("Returns(%s) = %v, want %v", n.Fn.Name(), got, w)
		}
	}
	if found != len(want) {
		t.Errorf("found %d of %d functions", found, len(want))
	}
}

package framework_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"reflect"
	"testing"

	"repro/internal/analysis/costbound"
	"repro/internal/analysis/framework"
	"repro/internal/analysis/protomc"
)

// TestAccAppendValuePayload runs one protocol body through both evaluator
// domains: a broadcast whose payload is built entry by entry with the real
// bigint.Acc.AppendValue. protomc must check every world clean, and
// costbound must derive exactly the Table 1 broadcast polynomial (S = W·⌈log₂
// g⌉, L = ⌈log₂ g⌉): a divergence or an underivable body would each be a
// finding.
func TestAccAppendValuePayload(t *testing.T) {
	pkgs, err := framework.Load("../../..", "./internal/analysis/framework/testdata/src/accsend/collective")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want the fixture alone", len(pkgs))
	}
	sums := framework.ComputeSummaries(pkgs)
	for _, a := range []*framework.Analyzer{protomc.Analyzer, costbound.Analyzer} {
		diags, _, err := framework.RunShared(a, pkgs[0], sums)
		if err != nil {
			t.Fatalf("running %s: %v", a.Name, err)
		}
		for _, d := range diags {
			t.Errorf("%s: %s:%d: %s %s", a.Name, d.Position.Filename, d.Position.Line, d.Message, d.Formula)
		}
	}
}

// concrete is the smallest domain: no leaf values of its own, and every
// undecidable construct is an error, so the tests below exercise only the
// shared evaluator.
type concrete struct{}

func (concrete) Zero(types.Type) (framework.Value, bool)      { return nil, false }
func (concrete) Scalar() framework.Value                      { return framework.Nil{} }
func (concrete) Vector(framework.Int) (framework.Value, bool) { return nil, false }
func (concrete) Opaque(types.Type) framework.Value            { return framework.Nil{} }
func (concrete) Mark() any                                    { return nil }
func (concrete) JoinBreaks([]any)                             {}
func (concrete) Cond(*framework.Eval, *framework.Scope, *ast.BinaryExpr) (framework.Bool, bool) {
	return framework.Bool{}, false
}
func (concrete) Op(ev *framework.Eval, op any, _ framework.Value, _ []framework.Value, e ast.Expr) framework.Value {
	ev.Fail(e.Pos(), "%v is not modeled", op)
	return nil
}
func (concrete) Branch(ev *framework.Eval, _ *framework.Scope, st *ast.IfStmt) framework.Flow {
	ev.Fail(st.Pos(), "unknown branch")
	return framework.FlowNormal
}
func (concrete) Loop(ev *framework.Eval, _ *framework.Scope, st ast.Stmt, _ framework.Value) framework.Flow {
	ev.Fail(st.Pos(), "unknown loop")
	return framework.FlowNormal
}
func (concrete) Call(*framework.Eval, *types.Func, framework.Value, []framework.Value, *ast.CallExpr) ([]framework.Value, bool) {
	return nil, false
}
func (concrete) Modeled(ev *framework.Eval, fn *types.Func, _ framework.Value, args []framework.Value, call *ast.CallExpr) []framework.Value {
	return ev.ModeledResults(fn, args, call)
}
func (concrete) Finish(_ *framework.Eval, exits []framework.Exit, _ token.Pos) []framework.Value {
	return exits[len(exits)-1].Vals
}

const evalSrc = `package p

import "fmt"

type acc struct{ sum int }

func (a *acc) add(vs ...int) { for _, v := range vs { a.sum += v } }

type shape interface{ area() int }
type sq struct{ n int }

func (s sq) area() int { return s.n * s.n }

func closures() int {
	var fs []func() int
	for i := 0; i < 3; i++ {
		fs = append(fs, func() int { return i * 10 })
	}
	total := 0
	for _, f := range fs {
		total += f()
	}
	return total
}

func named(n int) (out int, err error) {
	defer func() { out++ }()
	if n < 0 {
		return 0, fmt.Errorf("negative %d", n)
	}
	out = n * 2
	return
}

func variadic() int {
	a := &acc{}
	a.add(1, 2, 3)
	a.add([]int{4, 5}...)
	return a.sum
}

func control() (string, int) {
	m := map[string]int{"b": 2, "a": 1, "c": 3}
	keys := ""
	for k := range m {
		keys += k
	}
	n := 0
	for i := 0; ; i++ {
		switch {
		case i%2 == 0:
			continue
		case i > 7:
			break
		default:
			n += i
			continue
		}
		break
	}
	return keys, n
}

func dynamic() int {
	var s shape = sq{n: 4}
	return s.area()
}

func errs() string {
	_, err := named(-3)
	return err.Error()
}
`

// TestEvalCore pins the shared evaluator's Go semantics on a small
// import-light program: per-iteration closure capture, defers running at
// exit over named results, variadic binding with and without a spread,
// map ranges in insertion order, switch/break/continue, interface
// devirtualization, and the shared fmt boundary verb.
func TestEvalCore(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", evalSrc, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := framework.NewInfo()
	tpkg, err := (&types.Config{Importer: importer.Default()}).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &framework.Package{Path: "p", Fset: fset, Files: []*ast.File{f}, Types: tpkg, Info: info}
	sums := framework.ComputeSummaries([]*framework.Package{pkg})
	call := func(name string, args ...framework.Value) []framework.Value {
		node := sums.Graph.Nodes["p."+name]
		if node == nil {
			t.Fatalf("no node for %s", name)
		}
		return framework.NewEval(sums, concrete{}, 100_000).CallNode(node, nil, args, nil)
	}
	for _, c := range []struct {
		name string
		args []framework.Value
		want []framework.Value
	}{
		{"closures", nil, []framework.Value{framework.KnownInt(30)}},
		{"named", []framework.Value{framework.KnownInt(5)}, []framework.Value{framework.KnownInt(11), framework.Nil{}}},
		{"variadic", nil, []framework.Value{framework.KnownInt(15)}},
		{"control", nil, []framework.Value{framework.KnownStr("bac"), framework.KnownInt(1 + 3 + 5 + 7)}},
		{"dynamic", nil, []framework.Value{framework.KnownInt(16)}},
		{"errs", nil, []framework.Value{framework.Str{}}},
	} {
		got := call(c.name, c.args...)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s = %#v, want %#v", c.name, got, c.want)
		}
	}
}

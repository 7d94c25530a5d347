package framework

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// typeCheckPkg parses and type-checks one import-free source file into a
// loaded Package, mirroring what analysistest feeds the analyzers.
func typeCheckPkg(t *testing.T, path, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path+".go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := NewInfo()
	tpkg, err := (&types.Config{}).Check(path, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type-check: %v", err)
	}
	return &Package{Path: path, Fset: fset, Files: []*ast.File{f}, Types: tpkg, Info: info}
}

const ownershipSrc = `package p

type Int struct{ w []uint }

type Acc struct {
	dead bool
	abs  []uint
}

func NewAcc() *Acc          { return &Acc{} }
func (a *Acc) Release()     { a.dead = true }
func (a *Acc) Add(x Int)    {}
func (a *Acc) Value() Int   { return Int{} }

var sink *Acc

func releaseHelper(a *Acc) { a.Release() }
func useHelper(a *Acc)     { a.Add(Int{}) }
func maybeRelease(a *Acc, c bool) {
	if c {
		a.Release()
	}
}
func escapeHelper(a *Acc)  { sink = a }
func fieldHelper(x *Acc) int { return len(x.abs) }
func deferHelper(a *Acc) {
	defer a.Release()
	a.Add(Int{})
}
func wrapRelease(a *Acc)   { releaseHelper(a) }
func wrapUnknown(a *Acc, f func(*Acc)) { f(a) }
func closureCapture(a *Acc) {
	f := func() { a.Release() }
	f()
}
`

func TestSummaryOwnershipEffects(t *testing.T) {
	pkg := typeCheckPkg(t, "p", ownershipSrc)
	sums := ComputeSummaries([]*Package{pkg})

	cases := []struct {
		fn   string
		want ParamEffect
	}{
		{"releaseHelper", EffTracked | EffReleasesAll},
		{"useHelper", EffTracked | EffUses},
		{"maybeRelease", EffTracked | EffReleasesMaybe},
		{"escapeHelper", EffTracked | EffEscapes},
		{"deferHelper", EffTracked | EffUses | EffReleasesAll},
		{"wrapRelease", EffTracked | EffReleasesAll},
		{"fieldHelper", EffTracked | EffUses},
	}
	for _, c := range cases {
		sum := sums.Lookup("p." + c.fn)
		if sum == nil {
			t.Fatalf("no summary for %s", c.fn)
		}
		if got := sum.Params[0]; got != c.want {
			t.Errorf("%s param effect = %b, want %b", c.fn, got, c.want)
		}
	}
	// Handing the Acc to a func value ends tracking.
	if eff := sums.Lookup("p.wrapUnknown").Params[0]; eff&EffEscapes == 0 {
		t.Errorf("wrapUnknown param effect = %b, want escape", eff)
	}
	// A non-deferred closure capturing the Acc ends tracking too.
	if eff := sums.Lookup("p.closureCapture").Params[0]; eff&EffEscapes == 0 {
		t.Errorf("closureCapture param effect = %b, want escape", eff)
	}
}

const recoverySrc = `package ftparallel

type errImpl struct{}

func (errImpl) Error() string { return "" }

type Int struct{}
type Code struct{}

func (c *Code) Decode(m map[int][]Int) (map[int][]Int, error) { return m, nil }

func decodeVia(c *Code, m map[int][]Int) (map[int][]Int, error) { return c.Decode(m) }

func plain() {}
`

func TestSummaryRecoveryAndSpawn(t *testing.T) {
	pkg := typeCheckPkg(t, "ftparallel", recoverySrc)
	sums := ComputeSummaries([]*Package{pkg})

	dec := sums.Lookup("ftparallel.Code.Decode")
	if dec == nil || !dec.RecoverySource || !dec.RecoveryErr {
		t.Fatalf("Code.Decode summary = %+v, want RecoverySource and RecoveryErr", dec)
	}
	via := sums.Lookup("ftparallel.decodeVia")
	if !via.ReachesRecovery || !via.RecoveryErr {
		t.Errorf("decodeVia = %+v, want transitive ReachesRecovery and RecoveryErr", via)
	}
	if plain := sums.Lookup("ftparallel.plain"); plain.ReachesRecovery || plain.RecoveryErr {
		t.Errorf("plain = %+v, want no recovery facts", plain)
	}
}

const sccSrc = `package p

func leaf() {}
func mid()  { leaf() }
func top()  { mid() }

func pingPong(n int) {
	if n > 0 {
		pongPing(n - 1)
	}
}
func pongPing(n int) {
	if n > 0 {
		pingPong(n - 1)
	}
}
`

func TestCallGraphSCCOrder(t *testing.T) {
	pkg := typeCheckPkg(t, "p", sccSrc)
	g := NewCallGraph([]*Package{pkg})

	order := map[string]int{}
	for i, scc := range g.SCCs {
		for _, n := range scc {
			order[n.Key] = i
		}
	}
	if !(order["p.leaf"] < order["p.mid"] && order["p.mid"] < order["p.top"]) {
		t.Errorf("SCC order not bottom-up: leaf=%d mid=%d top=%d",
			order["p.leaf"], order["p.mid"], order["p.top"])
	}
	if order["p.pingPong"] != order["p.pongPing"] {
		t.Errorf("mutual recursion split across SCCs: %d vs %d",
			order["p.pingPong"], order["p.pongPing"])
	}
	if !g.Nodes["p.top"].Calls["p.mid"] {
		t.Errorf("missing edge top -> mid")
	}
}

// Mutual recursion over a tracked parameter must converge (conservatively:
// the intra-SCC handoff is an escape, never a wrong release claim).
func TestSummaryRecursiveOwnershipConservative(t *testing.T) {
	pkg := typeCheckPkg(t, "p", `package p

type Acc struct{}

func (a *Acc) Release() {}

func spinA(a *Acc, n int) {
	if n == 0 {
		a.Release()
		return
	}
	spinB(a, n-1)
}
func spinB(a *Acc, n int) { spinA(a, n) }
`)
	sums := ComputeSummaries([]*Package{pkg})
	for _, fn := range []string{"spinA", "spinB"} {
		eff := sums.Lookup("p." + fn).Params[0]
		if eff&EffReleasesAll != 0 {
			t.Errorf("%s claims releases-on-all-paths through recursion: %b", fn, eff)
		}
	}
}

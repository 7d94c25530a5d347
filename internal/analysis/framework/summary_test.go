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

type Acc struct{ dead bool }

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

const chargeSrc = `package p

type Stats struct{ n int }

func (s *Stats) chargeWords(n int) { s.n += n }

func direct(s *Stats)   { s.chargeWords(1) }
func viaHelper(s *Stats) { direct(s) }
func ignores(s *Stats)  { _ = s.n }
`

func TestSummaryCharges(t *testing.T) {
	pkg := typeCheckPkg(t, "p", chargeSrc)
	sums := ComputeSummaries([]*Package{pkg})
	for fn, want := range map[string]bool{
		"direct": true, "viaHelper": true, "ignores": false,
	} {
		sum := sums.Lookup("p." + fn)
		if sum == nil {
			t.Fatalf("no summary for %s", fn)
		}
		if sum.Charges != want {
			t.Errorf("%s.Charges = %v, want %v", fn, sum.Charges, want)
		}
	}
}

const kernelSrc = `package p

type Word uint

func natAddTo(dst, x, y []Word) []Word { return dst }

func wrapper(dst, x []Word) { natAddTo(dst, dst, x) }
func outer(d, s []Word)     { wrapper(d, s) }
func slicing(dst, x []Word) { natAddTo(dst[1:], dst, x) }
`

func TestSummaryKernelForwarding(t *testing.T) {
	pkg := typeCheckPkg(t, "p", kernelSrc)
	sums := ComputeSummaries([]*Package{pkg})

	w := sums.Lookup("p.wrapper")
	if len(w.KernelCalls) != 1 {
		t.Fatalf("wrapper.KernelCalls = %v, want 1 entry", w.KernelCalls)
	}
	kc := w.KernelCalls[0]
	if kc.Kernel != "natAddTo" || kc.DstParam != 0 || len(kc.SrcParams) != 2 || kc.SrcParams[0] != 0 || kc.SrcParams[1] != 1 {
		t.Errorf("wrapper forwarding = %+v, want natAddTo dst=0 srcs=[0 1]", kc)
	}

	// outer -> wrapper -> natAddTo composes.
	o := sums.Lookup("p.outer")
	if len(o.KernelCalls) != 1 {
		t.Fatalf("outer.KernelCalls = %v, want 1 composed entry", o.KernelCalls)
	}
	kc = o.KernelCalls[0]
	if kc.DstParam != 0 || kc.SrcParams[0] != 0 || kc.SrcParams[1] != 1 {
		t.Errorf("outer composed forwarding = %+v, want dst=0 srcs=[0 1]", kc)
	}

	// A sliced dst is not identity forwarding: no entry.
	if s := sums.Lookup("p.slicing"); len(s.KernelCalls) != 0 {
		t.Errorf("slicing.KernelCalls = %v, want none (dst is re-sliced)", s.KernelCalls)
	}
}

const recoverySrc = `package ftparallel

type errImpl struct{}

func (errImpl) Error() string { return "" }

type Int struct{}
type Code struct{}
type FaultEvent struct{ Index int }

func (c *Code) Decode(m map[int][]Int) (map[int][]Int, error) { return m, nil }

func decodeVia(c *Code, m map[int][]Int) (map[int][]Int, error) { return c.Decode(m) }

func spawnHelper() { go func() {}() }

func handler(ev []FaultEvent) { spawnHelper() }

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
	h := sums.Lookup("ftparallel.handler")
	if !h.HandlesFaults {
		t.Errorf("handler.HandlesFaults = false, want true ([]FaultEvent param)")
	}
	if !h.SpawnsGo {
		t.Errorf("handler.SpawnsGo = false, want true (via spawnHelper)")
	}
	if !h.FTReach {
		t.Errorf("handler.FTReach = false, want true (lives in ftparallel)")
	}
	if sums.Lookup("ftparallel.plain").SpawnsGo {
		t.Errorf("plain.SpawnsGo = true, want false")
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

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

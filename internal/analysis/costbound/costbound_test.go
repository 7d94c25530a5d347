package costbound

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/framework"
	"repro/internal/bigint"
	"repro/internal/machine"
)

// The clean fixture mirrors the real binomial-tree collectives; both derive
// exactly the Table 1 closed forms, so it expects zero findings.
func TestCollectiveClean(t *testing.T) {
	analysistest.Run(t, Analyzer, "collective/clean")
}

// The dirty fixture ships the broadcast payload twice per relay round; the
// derived bandwidth polynomial doubles and the analyzer must say so.
func TestCollectiveDirty(t *testing.T) {
	analysistest.Run(t, Analyzer, "collective/dirty")
}

func loadTree(t *testing.T) ([]*framework.Package, *framework.Summaries) {
	t.Helper()
	pkgs, err := framework.LoadCached("../../..",
		"./internal/collective", "./internal/parallel", "./internal/ftparallel",
		"./internal/ftengine")
	if err != nil {
		t.Fatalf("loading certification targets: %v", err)
	}
	return pkgs, framework.ComputeSummaries(pkgs)
}

func pkgNamed(t *testing.T, pkgs []*framework.Package, path string) *framework.Package {
	t.Helper()
	for _, p := range pkgs {
		if p.Path == path {
			return p
		}
	}
	t.Fatalf("package %s not loaded", path)
	return nil
}

// TestRealTree is the acceptance proof: the real collectives and both
// multiplication tiers certify against the paper's closed forms with zero
// findings and zero allow comments.
func TestRealTree(t *testing.T) {
	pkgs, _ := loadTree(t)
	active, suppressed, err := framework.RunAllDetail([]*framework.Analyzer{Analyzer}, pkgs)
	if err != nil {
		t.Fatalf("running costbound: %v", err)
	}
	for _, d := range active {
		if d.Analyzer == "costbound" {
			t.Errorf("%s: %s", d.Position, d.Message)
		}
	}
	for _, d := range suppressed {
		if d.Analyzer == "costbound" {
			t.Errorf("suppressed by allow comment (the certification must hold without suppressions): %s: %s", d.Position, d.Message)
		}
	}
}

// TestTableCounts pins the recurrence evaluations to hand-derived values, so
// a table-side regression cannot silently track an interpreter-side one.
func TestTableCounts(t *testing.T) {
	want := map[string]Counts{
		"parallel/P3k2":         {F: 75, S: 8, R: 8, L: 6},
		"parallel/P3k2+dfs":     {F: 345, S: 24, R: 24, L: 18},
		"ftparallel/P3k2F1":     {F: 97, S: 29, R: 10, L: 16},
		"ftparallel/P3k2F1+dfs": {F: 407, S: 77, R: 26, L: 40},
	}
	ws := Worlds()
	if len(ws) != len(want) {
		t.Fatalf("got %d worlds, want %d", len(ws), len(want))
	}
	for _, w := range ws {
		exp, ok := want[w.Name]
		if !ok {
			t.Errorf("unexpected world %s", w.Name)
			continue
		}
		if w.Expected != exp {
			t.Errorf("world %s: table gives %+v, hand derivation gives %+v", w.Name, w.Expected, exp)
		}
	}
	// Collective closed forms at spot points: ⌈log₂4⌉ = 2, ⌈log₂5⌉ = 3.
	if got := ExpectedBroadcast(4, 3); got != (Counts{F: 0, S: 6, R: 3, L: 2}) {
		t.Errorf("ExpectedBroadcast(4,3) = %+v", got)
	}
	if got := ExpectedBroadcast(5, 2); got != (Counts{F: 0, S: 6, R: 2, L: 3}) {
		t.Errorf("ExpectedBroadcast(5,2) = %+v", got)
	}
	if got := ExpectedReduce(4, 3); got != (Counts{F: 6, S: 3, R: 6, L: 1}) {
		t.Errorf("ExpectedReduce(4,3) = %+v", got)
	}
}

// TestFormulaMutation proves the collective certification is not vacuous:
// perturbing the expected bandwidth form by one word must produce a finding
// whose witness separates the polynomials.
func TestFormulaMutation(t *testing.T) {
	pkgs, sums := loadTree(t)
	coll := pkgNamed(t, pkgs, "repro/internal/collective")

	testMutateFormula = func(name string, cv costVec) costVec {
		if name == "Broadcast" {
			cv.S = cv.S.Add(framework.SymConst(1))
		}
		return cv
	}
	defer func() { testMutateFormula = nil }()

	active, _, err := framework.RunShared(Analyzer, coll, sums)
	if err != nil {
		t.Fatalf("running costbound: %v", err)
	}
	var hits []framework.Diagnostic
	for _, d := range active {
		if d.Analyzer == "costbound" && strings.Contains(d.Message, "Broadcast") {
			hits = append(hits, d)
		}
	}
	if len(hits) != 1 {
		t.Fatalf("got %d Broadcast findings under mutation, want 1: %v", len(hits), active)
	}
	d := hits[0]
	if d.Formula == "" || !strings.Contains(d.Formula, "≠") {
		t.Errorf("mutated finding lacks the formula pair: %q", d.Formula)
	}
	var g, w, got, want int64
	var counter string
	if _, err := fmt.Sscanf(d.Witness, "g=%d W=%d: %s derived=%d expected=%d",
		&g, &w, &counter, &got, &want); err != nil {
		t.Fatalf("witness %q does not parse: %v", d.Witness, err)
	}
	if counter != "S" || want != got+1 {
		t.Errorf("witness %q should separate S by exactly the injected word", d.Witness)
	}
}

// TestWorldMutation is the same non-vacuity proof for the finite worlds:
// perturbing one expected counter must produce a finding naming that world.
func TestWorldMutation(t *testing.T) {
	pkgs, sums := loadTree(t)
	par := pkgNamed(t, pkgs, "repro/internal/parallel")

	testMutateCounts = func(world string, c Counts) Counts {
		if world == "parallel/P3k2" {
			c.F++
		}
		return c
	}
	defer func() { testMutateCounts = nil }()

	active, _, err := framework.RunShared(Analyzer, par, sums)
	if err != nil {
		t.Fatalf("running costbound: %v", err)
	}
	var hits []framework.Diagnostic
	for _, d := range active {
		if d.Analyzer == "costbound" {
			hits = append(hits, d)
		}
	}
	if len(hits) != 1 {
		t.Fatalf("got %d findings under world mutation, want 1: %v", len(hits), hits)
	}
	d := hits[0]
	if !strings.Contains(d.Message, "parallel/P3k2") {
		t.Errorf("finding does not name the mutated world: %s", d.Message)
	}
	if !strings.Contains(d.Formula, "derived F=75") || !strings.Contains(d.Formula, "expected F=76") {
		t.Errorf("formula does not carry both counter values: %q", d.Formula)
	}
	if !strings.HasPrefix(d.Witness, "world parallel/P3k2:") {
		t.Errorf("witness does not pin the world parameters: %q", d.Witness)
	}
}

type noImporter struct{}

func (noImporter) Import(path string) (*types.Package, error) {
	return nil, fmt.Errorf("fixture must not import packages (got %q)", path)
}

// loadFixture type-checks one fixture package exactly as analysistest does,
// but returns the framework package so the test can inspect diagnostics.
func loadFixture(t *testing.T, rel string) *framework.Package {
	t.Helper()
	dir := filepath.Join("testdata", "src", rel)
	fset := token.NewFileSet()
	pkgAST, err := parser.ParseDir(fset, dir, nil, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing fixture: %v", err)
	}
	var files []*ast.File
	for _, p := range pkgAST {
		for _, f := range p.Files {
			files = append(files, f)
		}
	}
	info := framework.NewInfo()
	conf := types.Config{Importer: noImporter{}}
	tpkg, err := conf.Check(rel, fset, files, info)
	if err != nil {
		t.Fatalf("type-checking fixture: %v", err)
	}
	return &framework.Package{Path: rel, Fset: fset, Files: files, Types: tpkg, Info: info}
}

// TestDirtyWitnessReproduces closes the loop between the static derivation
// and the runtime: the witness world reported for the double-send broadcast
// fixture must reproduce the exact bandwidth divergence when the honest and
// the dirty protocol run on the real simulated machine under its own
// accounting.
func TestDirtyWitnessReproduces(t *testing.T) {
	diags, err := framework.Run(Analyzer, loadFixture(t, "collective/dirty"))
	if err != nil {
		t.Fatalf("running costbound on dirty fixture: %v", err)
	}
	var witness string
	for _, d := range diags {
		if strings.Contains(d.Message, "Broadcast cost diverges") {
			witness = d.Witness
		}
	}
	if witness == "" {
		t.Fatalf("no divergence witness among %v", diags)
	}
	var g, w, derived, expected int64
	var counter string
	if _, err := fmt.Sscanf(witness, "g=%d W=%d: %s derived=%d expected=%d",
		&g, &w, &counter, &derived, &expected); err != nil {
		t.Fatalf("witness %q does not parse: %v", witness, err)
	}
	if counter != "S" {
		t.Fatalf("witness %q should separate the sent-words counter", witness)
	}

	// Replay both protocols on the witness world: g ranks, W-word payload
	// (unit-word entries). Report.BW is the max words sent — the S counter.
	bw := func(double bool) int64 {
		m, err := machine.New(machine.Config{P: int(g)}, nil)
		if err != nil {
			t.Fatalf("machine: %v", err)
		}
		rep, err := m.Run(func(p *machine.Proc) error {
			var v machine.Ints
			if p.ID() == 0 {
				v = make(machine.Ints, w)
				for i := range v {
					v[i] = bigint.FromInt64(1)
				}
			}
			return runBroadcast(p, int(g), v, double)
		})
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		return rep.BW
	}
	if got := bw(false); got != expected {
		t.Errorf("honest broadcast on witness world sent %d words, witness expected side says %d", got, expected)
	}
	if got := bw(true); got != derived {
		t.Errorf("double-send broadcast on witness world sent %d words, witness derived side says %d", got, derived)
	}
}

// runBroadcast is the binomial-tree broadcast over ranks 0..n-1 with root 0,
// optionally sending the payload twice per relay round — the runtime twin of
// the clean/dirty fixtures.
func runBroadcast(p *machine.Proc, n int, v machine.Ints, double bool) error {
	r := p.ID()
	cur := v
	recvMask := 0
	for mask := 1; mask < n; mask <<= 1 {
		if r >= mask && r < mask<<1 {
			recvMask = mask
			break
		}
	}
	if r != 0 {
		got, err := p.Recv(r-recvMask, "bc")
		if err != nil {
			return err
		}
		cur = got
	}
	start := recvMask << 1
	if r == 0 {
		start = 1
	}
	for mask := start; mask < n; mask <<= 1 {
		if dst := r + mask; dst < n {
			if err := p.Send(dst, "bc", cur); err != nil {
				return err
			}
			if double {
				if err := p.Send(dst, "bc", cur); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

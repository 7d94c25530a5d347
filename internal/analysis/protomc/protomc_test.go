package protomc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/framework"
)

func TestCleanCollectiveFixture(t *testing.T) { analysistest.Run(t, Analyzer, "collective") }
func TestBadBroadcastFixture(t *testing.T)    { analysistest.Run(t, Analyzer, "badbcast") }
func TestBadReduceFixture(t *testing.T)       { analysistest.Run(t, Analyzer, "badreduce") }
func TestBadRecoverFixture(t *testing.T)      { analysistest.Run(t, Analyzer, "badrecover") }

// TestHiddenSendFixture pins that "can this call communicate?" is answered
// soundly: a send through a closure or an interface method guards an
// opaque branch as an inline send does, and a protocol that sends only
// through an interface method is still a world.
func TestHiddenSendFixture(t *testing.T) { analysistest.Run(t, Analyzer, "hiddensend") }

// TestRealTreeClean is the headline guarantee: the production collectives
// and the fault-tolerant engine are deadlock-free and orphan-free for every
// world size in [2,5], every legal root, and every single fail-stop fault
// plan the F=1 layout tolerates — with zero suppressions.
func TestRealTreeClean(t *testing.T) {
	pkgs, err := framework.LoadCached("../../..",
		"./internal/collective", "./internal/ftparallel", "./internal/parallel",
		"./internal/ftengine")
	if err != nil {
		t.Fatalf("loading real tree: %v", err)
	}
	sums := framework.ComputeSummaries(pkgs)
	var active, suppressed []framework.Diagnostic
	for _, pkg := range pkgs {
		a, s, err := framework.RunShared(Analyzer, pkg, sums)
		if err != nil {
			t.Fatalf("running protomc on %s: %v", pkg.Path, err)
		}
		active = append(active, a...)
		suppressed = append(suppressed, s...)
	}
	for _, d := range active {
		t.Errorf("%s:%d: [%s] %s", d.Position.Filename, d.Position.Line, d.World, d.Message)
		for _, ev := range d.Trace {
			t.Logf("  trace: %s", ev)
		}
	}
	if len(suppressed) != 0 {
		t.Errorf("real tree must hold with zero ftlint:allow suppressions, found %d", len(suppressed))
	}
}

// loadFixtureSource type-checks mutated fixture source the same way
// analysistest does, so tests can probe the analyzer against programs that
// exist only in memory.
func runOnSource(t *testing.T, pkgName, src string) []framework.Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, pkgName+".go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing mutated fixture: %v", err)
	}
	info := framework.NewInfo()
	conf := types.Config{Importer: failImporter{}}
	tpkg, err := conf.Check(pkgName, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type-checking mutated fixture: %v", err)
	}
	diags, err := framework.Run(Analyzer, &framework.Package{
		Path:  pkgName,
		Fset:  fset,
		Files: []*ast.File{f},
		Types: tpkg,
		Info:  info,
	})
	if err != nil {
		t.Fatalf("running analyzer: %v", err)
	}
	return diags
}

type failImporter struct{}

func (failImporter) Import(path string) (*types.Package, error) {
	return nil, os.ErrNotExist
}

// TestNonVacuity pins that the checker actually explores the protocols: a
// one-token tag skew on the receive side of the clean fixture's broadcast
// must surface as a deadlock. If this test fails, a clean report means
// nothing.
func TestNonVacuity(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "src", "collective", "collective.go"))
	if err != nil {
		t.Fatalf("reading clean fixture: %v", err)
	}
	const orig = `p.Recv(g[root], tag)`
	if !strings.Contains(string(raw), orig) {
		t.Fatalf("clean fixture no longer contains %q; update this test's mutation", orig)
	}
	mutated := strings.Replace(string(raw), orig, `p.Recv(g[root], tag+"x")`, 1)
	diags := runOnSource(t, "collective", mutated)
	for _, d := range diags {
		if strings.Contains(d.Message, "deadlock") {
			return
		}
	}
	t.Fatalf("mutated broadcast (receive tag skewed) produced no deadlock finding; got %d diagnostics: %+v", len(diags), diags)
}

// TestEvaluatorGate pins that the shared evaluator is protomc's only
// modelability gate: each construct put on Broadcast's non-root path in the
// clean fixture yields its finding at the construct, and no finding
// elsewhere. The evaluator refuses what it does not model; a deferred send
// it models, so the finding is the message nobody receives. (Under
// AllReduce the non-root v is Reduce's nil result, so the loop case also
// reports its index into a nil slice, on the same line.)
func TestEvaluatorGate(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "src", "collective", "collective.go"))
	if err != nil {
		t.Fatalf("reading clean fixture: %v", err)
	}
	const orig = `return p.Recv(g[root], tag)`
	at := strings.Index(string(raw), orig)
	if at < 0 {
		t.Fatalf("clean fixture no longer contains %q; update this test's mutation", orig)
	}
	line := strings.Count(string(raw[:at]), "\n") + 1
	for _, tc := range []struct{ name, construct, want string }{
		{"go statement", `go func() {}()`, "statement *ast.GoStmt is not modeled"},
		{"select", `select {}`, "statement *ast.SelectStmt is not modeled"},
		{"raw channel", "c := make(chan int, 1)\n\tc <- 1\n\t<-c", "make of chan int is not modeled"},
		{"opaque loop bound", "for i := 0; i < int(v[0]); i++ {\n\t\tp.Send(g[root], tag, v)\n\t}", "loop condition not concretely decidable"},
		{"deferred send", `defer p.Send(g[0], tag+"/d", v)`, `message tag "t/d" from p1 to p0 is never received`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mutated := strings.Replace(string(raw), orig, tc.construct+"\n\t"+orig, 1)
			found := false
			for _, d := range runOnSource(t, "collective", mutated) {
				if d.Position.Line != line {
					t.Errorf("finding off the construct's line %d: %s: %s", line, d.Position, d.Message)
				}
				found = found || strings.Contains(d.Message, tc.want)
			}
			if !found {
				t.Errorf("no finding containing %q", tc.want)
			}
		})
	}
}

// TestCounterexampleTrace checks the shape of a reported counterexample:
// the dirty broadcast's deadlock carries the world it was found in and a
// non-empty interleaving ending in concrete scheduler events.
func TestCounterexampleTrace(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "src", "badbcast", "badbcast.go"))
	if err != nil {
		t.Fatalf("reading fixture: %v", err)
	}
	diags := runOnSource(t, "badbcast", string(raw))
	var found *framework.Diagnostic
	for i := range diags {
		if strings.Contains(diags[i].Message, "deadlock") {
			found = &diags[i]
			break
		}
	}
	if found == nil {
		t.Fatalf("no deadlock diagnostic on badbcast; got %+v", diags)
	}
	if found.World == "" {
		t.Errorf("deadlock diagnostic has no world description")
	}
	if !strings.Contains(found.World, "n=2") {
		t.Errorf("expected the smallest failing world (n=2), got %q", found.World)
	}
	if len(found.Trace) == 0 {
		t.Fatalf("deadlock diagnostic has no counterexample trace")
	}
	joined := strings.Join(found.Trace, "\n")
	if !strings.Contains(joined, "waits for tag") {
		t.Errorf("trace does not show the blocked receive:\n%s", joined)
	}
}

// TestRealTreeCensus pins what TestRealTreeClean explores, so a world that
// silently stops being built cannot pass as clean: every collective world,
// the three engine worlds on 7 ranks, and one single-fault plan per barrier
// crossing of the fault-free run of each fault-tolerant engine world.
func TestRealTreeCensus(t *testing.T) {
	pkgs, err := framework.LoadCached("../../..",
		"./internal/collective", "./internal/ftparallel", "./internal/parallel",
		"./internal/ftengine")
	if err != nil {
		t.Fatalf("loading real tree: %v", err)
	}
	sums := framework.ComputeSummaries(pkgs)
	collectives := 0
	type census struct{ n, plans int }
	engine := map[string]census{}
	for _, pkg := range pkgs {
		pass := &framework.Pass{Analyzer: Analyzer, Path: pkg.Path, Fset: pkg.Fset,
			Files: pkg.Files, Pkg: pkg.Types, Info: pkg.Info, Summaries: sums}
		worlds := buildWorlds(pass)
		for _, w := range worlds {
			if !strings.HasPrefix(w.name, "ftparallel.Multiply ") {
				if pkg.Path != "repro/internal/collective" {
					t.Errorf("unexpected world %q in %s", w.name, pkg.Path)
				}
				collectives++
				continue
			}
			c := census{n: w.n}
			if w.faultTolerant {
				ck := &checker{sums: sums, w: w, seen: map[string]bool{}}
				ck.runOnce(nil)
				c.plans = len(ck.crossings)
			}
			engine[w.name] = c
		}
	}
	if collectives != 46 {
		t.Errorf("collective worlds = %d, want 46", collectives)
	}
	want := map[string]int{
		"ftparallel.Multiply P=3 k=2 F=1 ldfs=0":           21,
		"ftparallel.Multiply P=3 k=2 F=1 ldfs=1":           49,
		"ftparallel.Multiply P=3 k=2 F=1 ldfs=0 straggler": 0,
	}
	if len(engine) != len(want) {
		t.Errorf("engine worlds = %v, want %d", engine, len(want))
	}
	for name, plans := range want {
		c, ok := engine[name]
		if !ok {
			t.Errorf("engine world %q not explored", name)
			continue
		}
		if c.n != 7 || c.plans != plans {
			t.Errorf("%s: %d ranks, %d single-fault plans; want 7 ranks, %d plans", name, c.n, c.plans, plans)
		}
	}
}

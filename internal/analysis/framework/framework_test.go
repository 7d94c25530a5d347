package framework_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis/accown"
	"repro/internal/analysis/framework"
	"repro/internal/analysis/poolspawn"
)

// TestLoadAndRun exercises the `go list -export` loader against the real
// tree: internal/bigint must load, type-check, and come out clean under the
// analyzers that police it (it is the package whose invariants they encode).
func TestLoadAndRun(t *testing.T) {
	pkgs, err := framework.Load(".", "repro/internal/bigint")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "repro/internal/bigint" {
		t.Fatalf("Load returned %d packages, want exactly repro/internal/bigint", len(pkgs))
	}
	for _, a := range []*framework.Analyzer{accown.Analyzer, poolspawn.Analyzer} {
		diags, err := framework.Run(a, pkgs[0])
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		for _, d := range diags {
			t.Errorf("%s: unexpected finding in clean package: %s: %s", a.Name, d.Position, d.Message)
		}
	}
}

// loadStaleFixture type-checks the allow-audit fixture by hand (it is not a
// listable package, so the go list loader does not apply).
func loadStaleFixture(t *testing.T) *framework.Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filepath.Join("testdata", "src", "stale", "stale.go"), nil, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing fixture: %v", err)
	}
	info := framework.NewInfo()
	tpkg, err := (&types.Config{}).Check("stale", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type-checking fixture: %v", err)
	}
	return &framework.Package{Path: "stale", Fset: fset, Files: []*ast.File{f}, Types: tpkg, Info: info}
}

// TestAllowAudit: RunAll must flag the stale allow, the unknown-analyzer
// allow, and the unused half of the space-after-comma list (whose parsing
// must not truncate at the space), and leave the live allows alone.
func TestAllowAudit(t *testing.T) {
	pkg := loadStaleFixture(t)
	diags, err := framework.RunAll(
		[]*framework.Analyzer{accown.Analyzer, poolspawn.Analyzer},
		[]*framework.Package{pkg})
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	var stale, unknown, staleComma int
	for _, d := range diags {
		if d.Analyzer != "allowaudit" {
			t.Errorf("non-audit finding leaked through a live allow: %s: %s", d.Position, d.Message)
			continue
		}
		switch {
		case strings.Contains(d.Message, "unknown analyzer \"acccown\""):
			unknown++
		case strings.Contains(d.Message, "stale ftlint:allow for \"accown\""):
			stale++
		case strings.Contains(d.Message, "stale ftlint:allow for \"poolspawn\""):
			staleComma++
		default:
			t.Errorf("unexpected audit finding: %s: %s", d.Position, d.Message)
		}
	}
	if unknown != 1 || stale != 1 || staleComma != 1 {
		t.Errorf("audit found %d unknown-analyzer, %d stale accown, %d stale poolspawn allows, want 1 each (the poolspawn one requires parsing past the comma's space)",
			unknown, stale, staleComma)
	}
}

// TestSingleRunSkipsAudit: framework.Run must not audit (an allow aimed at
// an analyzer outside a single-analyzer run is not evidence of staleness).
func TestSingleRunSkipsAudit(t *testing.T) {
	pkg := loadStaleFixture(t)
	diags, err := framework.Run(accown.Analyzer, pkg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding from single-analyzer run: %s: %s", d.Position, d.Message)
	}
}

func TestPathHasSegment(t *testing.T) {
	cases := []struct {
		path, seg string
		want      bool
	}{
		{"repro/internal/toom", "toom", true},
		{"repro/internal/toomgraph", "toom", false},
		{"repro/internal/ftparallel", "parallel", false},
		{"repro/internal/parallel", "parallel", true},
		{"toom", "toom", true},
		{"", "toom", false},
	}
	for _, c := range cases {
		if got := framework.PathHasSegment(c.path, c.seg); got != c.want {
			t.Errorf("PathHasSegment(%q, %q) = %v, want %v", c.path, c.seg, got, c.want)
		}
	}
}

package framework

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// pkgJSON renders one go-list JSON object for loadList.
func pkgJSON(t *testing.T, p map[string]any) []byte {
	t.Helper()
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// writeFixture drops a single-file package into a temp dir and returns it.
func writeFixture(t *testing.T, name, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
		t.Fatalf("writing fixture: %v", err)
	}
	return dir
}

func wantLoadError(t *testing.T, out []byte, substr string) {
	t.Helper()
	pkgs, err := loadList(out)
	if err == nil {
		t.Fatalf("loadList succeeded with %d packages, want error containing %q", len(pkgs), substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Errorf("error %q does not mention %q", err, substr)
	}
}

func TestLoadListMalformedJSON(t *testing.T) {
	wantLoadError(t, []byte(`{"ImportPath": "x", `), "decoding output")
}

func TestLoadListReportsListError(t *testing.T) {
	out := pkgJSON(t, map[string]any{
		"ImportPath": "broken/pkg",
		"Error":      map[string]any{"Err": "no Go files in broken/pkg"},
	})
	wantLoadError(t, out, "no Go files in broken/pkg")
}

func TestLoadListParseError(t *testing.T) {
	dir := writeFixture(t, "bad.go", "package p\nfunc {\n")
	out := pkgJSON(t, map[string]any{
		"Dir":        dir,
		"ImportPath": "tmp/bad",
		"GoFiles":    []string{"bad.go"},
	})
	wantLoadError(t, out, "parsing bad.go")
}

func TestLoadListTypeCheckError(t *testing.T) {
	dir := writeFixture(t, "ill.go", "package p\nvar x = undefinedSymbol\n")
	out := pkgJSON(t, map[string]any{
		"Dir":        dir,
		"ImportPath": "tmp/ill",
		"GoFiles":    []string{"ill.go"},
	})
	wantLoadError(t, out, "type-checking tmp/ill")
}

func TestLoadListMissingExportData(t *testing.T) {
	dir := writeFixture(t, "imp.go", "package p\nimport _ \"fake/dep\"\n")
	out := pkgJSON(t, map[string]any{
		"Dir":        dir,
		"ImportPath": "tmp/imp",
		"GoFiles":    []string{"imp.go"},
	})
	// No deps in the list output, so the importer has no export data for
	// fake/dep and type-checking must surface that.
	wantLoadError(t, out, `no export data for "fake/dep"`)
}

func TestLoadBadPattern(t *testing.T) {
	pkgs, err := Load(".", "./no-such-dir")
	if err == nil {
		t.Fatalf("Load succeeded with %d packages for a nonexistent pattern", len(pkgs))
	}
}

func TestLoadListSkipsEmptyTargets(t *testing.T) {
	out := pkgJSON(t, map[string]any{
		"ImportPath": "tmp/empty",
		"GoFiles":    []string{},
	})
	pkgs, err := loadList(out)
	if err != nil {
		t.Fatalf("loadList: %v", err)
	}
	if len(pkgs) != 0 {
		t.Errorf("loadList produced %d packages from a file-less target, want 0", len(pkgs))
	}
}

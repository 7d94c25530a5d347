package main

import (
	"encoding/json"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden -json report from the current output")

// buildLint compiles the ftlint binary once into a temp dir. Running the
// real binary (rather than calling main's pieces in-process) pins the whole
// CLI contract: flag parsing, exit codes, and the stdout/stderr split.
func buildLint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ftlint")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("building ftlint: %v\n%s", err, out)
	}
	return bin
}

// runLint runs the binary in dir and returns stdout, stderr, and the exit
// code. The lintme fixture is its own module (nested go.mod), so the outer
// build never sees its seeded findings.
func runLint(t *testing.T, bin, dir string, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	code := 0
	if err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("running ftlint %v: %v\n%s", args, err, stderr.String())
		}
		code = ee.ExitCode()
	}
	return stdout.String(), stderr.String(), code
}

func lintmeDir(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "lintme"))
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestExitCodes pins the documented contract: 0 clean (suppressions count
// as clean), 1 with findings, 2 on a load error.
func TestExitCodes(t *testing.T) {
	bin := buildLint(t)
	dir := lintmeDir(t)

	if _, stderr, code := runLint(t, bin, dir, "./clean"); code != 0 {
		t.Errorf("clean package: exit %d, want 0\nstderr: %s", code, stderr)
	}
	if _, stderr, code := runLint(t, bin, dir, "./dirty"); code != 1 {
		t.Errorf("dirty package: exit %d, want 1\nstderr: %s", code, stderr)
	} else if !strings.Contains(stderr, "finding(s)") {
		t.Errorf("dirty package: stderr %q lacks the finding count", stderr)
	}
	if _, stderr, code := runLint(t, bin, dir, "./nosuchpkg"); code != 2 {
		t.Errorf("bad pattern: exit %d, want 2\nstderr: %s", code, stderr)
	}
}

// TestJSONGolden runs -json over the whole fixture module and compares the
// normalized report (absolute fixture paths stripped) against
// testdata/report.golden.json. Regenerate with: go test ./cmd/ftlint -update
func TestJSONGolden(t *testing.T) {
	bin := buildLint(t)
	dir := lintmeDir(t)

	stdout, stderr, code := runLint(t, bin, dir, "-json", "./...")
	if code != 1 {
		t.Fatalf("-json ./...: exit %d, want 1 (dirty seeds findings)\nstderr: %s", code, stderr)
	}

	got := strings.ReplaceAll(stdout, dir+string(filepath.Separator), "")

	golden := filepath.Join("testdata", "report.golden.json")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("-json output differs from %s (re-run with -update if the change is intended)\ngot:\n%s\nwant:\n%s", golden, got, want)
	}

	// Schema: the report must round-trip into the documented shape with
	// every required field populated.
	var report struct {
		Findings []struct {
			File         string   `json:"file"`
			Line         int      `json:"line"`
			Col          int      `json:"col"`
			Analyzer     string   `json:"analyzer"`
			Message      string   `json:"message"`
			SuppressedBy string   `json:"suppressed_by"`
			World        string   `json:"world"`
			Trace        []string `json:"trace"`
			Formula      string   `json:"formula"`
			Witness      string   `json:"witness"`
		} `json:"findings"`
		Suppressed []struct {
			File         string `json:"file"`
			Line         int    `json:"line"`
			Analyzer     string `json:"analyzer"`
			Message      string `json:"message"`
			SuppressedBy string `json:"suppressed_by"`
		} `json:"suppressed"`
	}
	if err := json.Unmarshal([]byte(stdout), &report); err != nil {
		t.Fatalf("-json output does not parse: %v", err)
	}
	if len(report.Findings) == 0 {
		t.Fatal("report has no findings; dirty/dirty.go seeds two")
	}
	seen := map[string]bool{}
	for _, f := range report.Findings {
		seen[f.Analyzer] = true
		if f.File == "" || f.Line <= 0 || f.Col <= 0 || f.Analyzer == "" || f.Message == "" {
			t.Errorf("finding missing required fields: %+v", f)
		}
		if f.SuppressedBy != "" {
			t.Errorf("active finding carries suppressed_by: %+v", f)
		}
	}
	for _, want := range []string{"accown", "natalias", "modbound", "chanproto", "protomc", "costbound"} {
		if !seen[want] {
			t.Errorf("no %s finding in report; the lintme fixtures seed one", want)
		}
	}
	// Model-checker findings must carry their counterexample: the world the
	// violation was proved in and a non-empty interleaving; local analyses
	// must not.
	for _, f := range report.Findings {
		if f.Analyzer == "protomc" {
			if f.World == "" {
				t.Errorf("protomc finding lacks a world: %+v", f)
			}
			if len(f.Trace) == 0 {
				t.Errorf("protomc finding lacks a counterexample trace: %+v", f)
			}
		} else if f.World != "" || len(f.Trace) != 0 {
			t.Errorf("%s finding carries model-checker fields: %+v", f.Analyzer, f)
		}
	}
	// Cost-certification divergences must carry the formula pair and the
	// witness world; no other analyzer may populate those fields. The
	// "cannot certify" failure mode legitimately carries neither.
	costDivergences := 0
	for _, f := range report.Findings {
		if f.Analyzer == "costbound" {
			if f.Formula != "" || f.Witness != "" {
				costDivergences++
				if f.Formula == "" || f.Witness == "" {
					t.Errorf("costbound divergence carries only half its evidence: %+v", f)
				}
			}
		} else if f.Formula != "" || f.Witness != "" {
			t.Errorf("%s finding carries cost-certification fields: %+v", f.Analyzer, f)
		}
	}
	if costDivergences == 0 {
		t.Error("no costbound divergence with formula and witness; collective/collective.go seeds one")
	}
	if len(report.Suppressed) == 0 {
		t.Fatal("report has no suppressed entries; clean/clean.go seeds one")
	}
	for _, s := range report.Suppressed {
		if s.SuppressedBy == "" {
			t.Errorf("suppressed entry lacks suppressed_by: %+v", s)
		}
	}
}

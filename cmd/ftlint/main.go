// Command ftlint machine-checks the invariants that keep the hot path and
// the paper's accounting honest: pooled accumulator ownership (accown: every
// NewAcc is `acc := NewAcc()` with `defer acc.Release()` right after it, and
// the Acc never escapes), bounded-pool-only concurrency in every package
// (poolspawn), the Section-4 fault-recovery path (recoverpath, through
// call-graph summaries: recovery errors, the runtime repair's
// erasure.Code.Solve included, must be checked), and, on the framework's CFG
// and interval abstract interpretation, the NTT kernel's lazy-arithmetic
// contracts (modbound: every lazy store provably in [0, 2p), Shoup/REDC
// preconditions, no uint64 wraparound, strict reduction before CRT
// recombination). The run also audits the //ftlint:allow comments
// themselves: an allow that names an unknown analyzer or no longer
// suppresses anything is a finding (allowaudit). The message protocol is not
// an analyzer's: the machine checks it on every run (internal/machine), and
// internal/crosscheck's tests compare the cost accounting with the paper's
// table. See DESIGN.md "Machine-checked invariants".
//
// Usage:
//
//	ftlint [-json] [packages]
//
// with the usual go list patterns (default ./...). Exits 1 when any finding
// survives the //ftlint:allow escape hatches, 2 on load/run errors.
//
// -json emits a machine-readable report on stdout instead of the line
// format: {"findings": [...], "suppressed": [...]} where every entry
// carries file, line, col, analyzer, and message, and suppressed entries
// additionally carry the file:line of the allow comment that covered them
// (suppressed_by). The exit code contract is unchanged.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis/accown"
	"repro/internal/analysis/framework"
	"repro/internal/analysis/modbound"
	"repro/internal/analysis/poolspawn"
	"repro/internal/analysis/recoverpath"
)

var analyzers = []*framework.Analyzer{
	accown.Analyzer,
	poolspawn.Analyzer,
	recoverpath.Analyzer,
	modbound.Analyzer,
}

// jsonFinding is one entry of the -json report. The schema is covered by
// the golden CLI test in main_test.go and asserted parseable in CI; extend
// it, don't rearrange it.
type jsonFinding struct {
	File         string `json:"file"`
	Line         int    `json:"line"`
	Col          int    `json:"col"`
	Analyzer     string `json:"analyzer"`
	Message      string `json:"message"`
	SuppressedBy string `json:"suppressed_by,omitempty"`
}

// jsonReport is the top-level -json payload.
type jsonReport struct {
	Findings   []jsonFinding `json:"findings"`
	Suppressed []jsonFinding `json:"suppressed"`
}

func toJSON(ds []framework.Diagnostic) []jsonFinding {
	out := make([]jsonFinding, 0, len(ds))
	for _, d := range ds {
		out = append(out, jsonFinding{
			File:         d.Position.Filename,
			Line:         d.Position.Line,
			Col:          d.Position.Column,
			Analyzer:     d.Analyzer,
			Message:      d.Message,
			SuppressedBy: d.SuppressedBy,
		})
	}
	return out
}

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	asJSON := flag.Bool("json", false, "emit findings (and suppressed findings) as JSON on stdout")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: ftlint [flags] [packages]\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-11s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-11s %s\n", a.Name, a.Doc)
		}
		return
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftlint:", err)
		os.Exit(2)
	}
	pkgs, err := framework.Load(wd, flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftlint:", err)
		os.Exit(2)
	}
	diags, suppressed, err := framework.RunAllDetail(analyzers, pkgs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftlint:", err)
		os.Exit(2)
	}

	if *asJSON {
		report := jsonReport{Findings: toJSON(diags), Suppressed: toJSON(suppressed)}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, "ftlint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s: %s (%s)\n", d.Position, d.Message, d.Analyzer)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "ftlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

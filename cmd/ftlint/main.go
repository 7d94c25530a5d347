// Command ftlint machine-checks the invariants that keep the hot path and
// the paper's accounting honest: pooled accumulator ownership (accown,
// path-sensitive over the framework's CFG and interprocedural via
// call-graph summaries), bounded-pool-only concurrency (poolspawn),
// Stats-counter races from workers (statsrace), the Section-4
// fault-recovery path (recoverpath: recovery errors must be checked,
// recovery handlers must not spawn raw goroutines or allocate from
// caller-held arenas), and, on the framework's interval abstract
// interpretation, the NTT kernel's lazy-arithmetic contracts (modbound:
// every lazy store provably in [0, 2p), Shoup/REDC preconditions, no
// uint64 wraparound, strict reduction before CRT recombination). protomc
// runs every communicating per-processor collective and the fault-tolerant
// engine in the shared evaluator and model-checks them explicitly for small
// worlds (n in [2,5], every legal root, every tolerated single fail-stop
// fault plan), proving deadlock-freedom, send/recv matching, barrier phase
// consistency, and fault-recovery completion — each violation reported
// with a concrete counterexample interleaving. costbound derives the F/BW/L
// cost polynomials of the binomial-tree collectives (symbolic in g and W)
// and of both multiplication tiers (exactly, over the finite crosscheck
// worlds) from the real ASTs and certifies them against the paper's Table
// 1/2 closed forms — a divergence carries both formulas and a concrete
// witness world. The run also audits the //ftlint:allow comments
// themselves: an allow that names an unknown analyzer or no longer
// suppresses anything is a finding (allowaudit). See DESIGN.md
// "Machine-checked invariants".
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
	"repro/internal/analysis/costbound"
	"repro/internal/analysis/framework"
	"repro/internal/analysis/modbound"
	"repro/internal/analysis/poolspawn"
	"repro/internal/analysis/protomc"
	"repro/internal/analysis/recoverpath"
	"repro/internal/analysis/statsrace"
)

var analyzers = []*framework.Analyzer{
	accown.Analyzer,
	poolspawn.Analyzer,
	statsrace.Analyzer,
	recoverpath.Analyzer,
	modbound.Analyzer,
	protomc.Analyzer,
	costbound.Analyzer,
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
	// World and Trace carry a model-checker counterexample: the concrete
	// world the violation was proved in and its interleaving, one scheduler
	// event per entry. Only protomc findings populate them.
	World string   `json:"world,omitempty"`
	Trace []string `json:"trace,omitempty"`
	// Formula and Witness carry a cost-certification divergence: the
	// derived-vs-expected polynomial pair and the concrete assignment that
	// separates them. Only costbound findings populate them.
	Formula string `json:"formula,omitempty"`
	Witness string `json:"witness,omitempty"`
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
			World:        d.World,
			Trace:        d.Trace,
			Formula:      d.Formula,
			Witness:      d.Witness,
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

// Package protomc extracts communication skeletons from per-processor SPMD
// functions and model-checks them explicitly for concrete small worlds.
//
// The analyzer targets packages that implement collectives or fault-tolerant
// recovery on top of the machine transport (the collective and ftparallel
// packages, plus fixture packages declaring their own Proc stand-in). Each
// package-level function taking a *machine.Proc first is compiled — via the
// shared abstract interpreter — into a process network and run to
// quiescence for every world size n in [2,5] and every legal root. The
// fault-tolerant engine is additionally instantiated exactly as
// ftparallel.Multiply builds it and re-explored under every single
// fail-stop fault plan its layout claims to tolerate (one fault per barrier
// crossing observed in the fault-free run, mirroring machine.Proc's
// per-rank, phase-keyed hit counting).
//
// Properties checked, each reported with a counterexample interleaving and
// the fault plan that exhibits it:
//
//   - deadlock-freedom: no reachable quiescent state where an unfailed
//     processor is still waiting;
//   - send/recv matching: every queue drains (no orphan message), no
//     receive waits forever, no message is addressed outside the world or
//     to a rank that has already terminated;
//   - barrier consistency: all participants arrive at the same phase;
//   - fault-tolerant completion: under any tolerated single fail-stop
//     plan, no processor aborts with an error and no replacement consumes
//     a message addressed to its failed predecessor.
//
// Functions whose call tree the interpreter cannot model soundly (goroutine
// spawns, selects, raw channel operations, unbounded comm loops) are
// themselves findings — the checker never silently skips, so a clean report
// really means the protocol space was explored.
package protomc

import (
	"go/ast"
	"go/token"

	"repro/internal/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name: "protomc",
	Doc:  "model-check communication skeletons of collectives and FT recovery under fail-stop faults",
	Run:  run,
}

func run(pass *framework.Pass) error {
	worlds, skels := buildWorlds(pass)

	// The same violation recurs across world sizes and fault plans (with
	// processor numbers baked into the message); report one diagnostic per
	// anchor position, keeping the smallest world's counterexample.
	reported := map[token.Pos]bool{}
	emit := func(fs []Finding) {
		for _, f := range fs {
			if reported[f.Pos] {
				continue
			}
			reported[f.Pos] = true
			pass.ReportTrace(f.Pos, f.World, f.Trace, "%s", f.Msg)
		}
	}

	for _, w := range worlds {
		findings, crossings := explore(pass.Summaries, skels, w)
		emit(findings)
		if !w.faultTolerant {
			continue
		}
		// Re-explore under every single fail-stop plan: one fault per
		// barrier crossing the fault-free run performed. Collectives have
		// no barriers (empty census), so this only expands engine worlds.
		for _, c := range crossings {
			fw := *w
			fw.plan = []faultSpec{c}
			fw.name = w.name + " " + c.String()
			f2, _ := explore(pass.Summaries, skels, &fw)
			emit(f2)
		}
	}
	return nil
}

// buildWorlds instantiates every world of the pass's package, reporting
// the functions it could not instantiate.
func buildWorlds(pass *framework.Pass) ([]*world, *framework.SkeletonSet) {
	if framework.ModelBoundaryPkg(pass.Path) {
		return nil, nil // transport/arithmetic layers are modeled natively, not checked
	}
	if !inScope(pass) {
		return nil, nil
	}
	skels := framework.ExtractSkeletons(pass.Summaries, framework.DefaultWorldAxioms())
	worlds, errs := collectiveWorlds(pass, pass.Summaries, skels)
	ew, eerrs := engineWorlds(pass, pass.Summaries, skels)
	for _, ie := range append(errs, eerrs...) {
		pass.Reportf(ie.pos, "%s: %s", shortKey(ie.key), ie.msg)
	}
	return append(worlds, ew...), skels
}

// inScope: the collective, ftengine, and ftparallel packages, plus any
// package that declares its own Proc type (analysis fixtures use local
// stand-ins; the real machine package also declares Proc but is excluded
// above as a model boundary).
func inScope(pass *framework.Pass) bool {
	if framework.PathHasSegment(pass.Path, "collective") ||
		framework.PathHasSegment(pass.Path, "ftengine") ||
		framework.PathHasSegment(pass.Path, "ftparallel") {
		return true
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, s := range gd.Specs {
				if ts, ok := s.(*ast.TypeSpec); ok && ts.Name.Name == "Proc" {
					return true
				}
			}
		}
	}
	return false
}

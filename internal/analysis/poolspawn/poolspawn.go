// Package poolspawn forbids raw `go` statements in the packages whose
// concurrency must route through the bounded worker pool
// (internal/workpool): internal/toom, internal/parallel, internal/ftengine,
// internal/ftparallel, internal/ftmatmul, internal/machine, internal/bigint
// (the NTT's per-prime and butterfly fan-out) and internal/workpool itself.
// The seed implementation's one-goroutine-per-subproduct fan-out was a
// (2k-1)^depth goroutine explosion; the pool bounds live workers at
// GOMAXPROCS, and this analyzer keeps new code from quietly reintroducing
// unbounded spawns.
//
// internal/collective is governed too, with no sanctioned spawn, so raw
// goroutines are statically forbidden in every package protomc models:
// protomc's evaluator refuses one only on a path some world explores.
//
// The two legitimate spawn sites — the pool's own worker launch and the
// machine simulator's one-goroutine-per-processor Run loop — carry explicit
// `//ftlint:allow poolspawn <rationale>` comments.
package poolspawn

import (
	"go/ast"

	"repro/internal/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name: "poolspawn",
	Doc:  "forbid raw go statements in pool-governed packages; concurrency must use the bounded worker pool",
	Run:  run,
}

// governed lists the package path segments under the no-raw-goroutines rule.
// The "machine" segment covers internal/machine.
var governed = []string{"toom", "parallel", "ftengine", "ftparallel", "ftmatmul", "machine", "bigint", "workpool", "collective"}

func run(pass *framework.Pass) error {
	target := false
	for _, seg := range governed {
		if framework.PathHasSegment(pass.Path, seg) {
			target = true
			break
		}
	}
	if !target {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(), "raw go statement in pool-governed package %q: route concurrency through the bounded worker pool (or annotate //ftlint:allow poolspawn with a rationale)", pass.Path)
			}
			return true
		})
	}
	return nil
}

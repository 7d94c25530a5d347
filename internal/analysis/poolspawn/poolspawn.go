// Package poolspawn forbids raw `go` statements in every package:
// concurrency routes through the bounded worker pool (internal/workpool).
// The seed implementation's one-goroutine-per-subproduct fan-out was a
// (2k-1)^depth goroutine explosion; the pool bounds live workers at
// GOMAXPROCS, and this analyzer keeps new code from quietly reintroducing
// unbounded spawns. That covers the fault-recovery path too: a goroutine
// leaked during a repair outlives it, and a collective runs on its rank's
// goroutine, the only one that may call the rank's Proc.
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
	Doc:  "forbid raw go statements; concurrency must use the bounded worker pool",
	Run:  run,
}

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(), "raw go statement in package %q: route concurrency through the bounded worker pool (or annotate //ftlint:allow poolspawn with a rationale)", pass.Path)
			}
			return true
		})
	}
	return nil
}

// Package statsrace flags data races on cost counters: non-atomic mutation
// of a Stats value (machine.Stats F/BW/L counters, toom.Stats word-op
// counters) from inside a worker — a function literal spawned with `go` or
// handed to a worker pool's fork. The counters are plain int64 fields
// updated with `+=`, so two workers charging the same Stats concurrently
// lose updates and silently corrupt the paper's cost accounting (the race
// detector only catches this when a benchmark happens to overlap the
// writes; the analyzer catches it structurally).
//
// A mutation counts when the Stats base variable is captured from the
// enclosing function — a Stats declared inside the literal is worker-local
// and safe. Calls to chargeWords on a captured Stats are flagged too:
// chargeWords is a plain `+=` underneath. The sanctioned patterns are
// passing nil stats into concurrent leaves or giving each worker its own
// Stats and merging after the join.
package statsrace

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name: "statsrace",
	Doc:  "flag non-atomic Stats counter mutations from pool-spawned or go-spawned workers",
	Run:  run,
}

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
					checkWorker(pass, lit, "go-spawned")
				}
			case *ast.CallExpr:
				callee := framework.CalleeIdent(n)
				if callee == nil || callee.Name != "fork" {
					return true
				}
				for _, arg := range n.Args {
					if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
						checkWorker(pass, lit, "pool-spawned")
					}
				}
			}
			return true
		})
	}
	return nil
}

// capturedStatsBase returns the identifier of expr's base variable if expr
// is a selector on a (pointer to) Stats whose variable is declared outside
// the literal, i.e. shared with the spawner and possibly with sibling
// workers.
func capturedStatsBase(pass *framework.Pass, lit *ast.FuncLit, expr ast.Expr) *ast.Ident {
	sel, ok := ast.Unparen(expr).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	base, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil
	}
	tv, ok := pass.Info.Types[sel.X]
	if !ok || framework.NamedTypeName(tv.Type) != "Stats" {
		return nil
	}
	obj := pass.Info.Uses[base]
	if obj == nil || obj.Pos() == token.NoPos {
		return nil
	}
	if obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
		return nil // declared inside the worker: worker-local, no race
	}
	return base
}

func checkWorker(pass *framework.Pass, lit *ast.FuncLit, how string) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if base := capturedStatsBase(pass, lit, lhs); base != nil {
					pass.Reportf(lhs.Pos(), "non-atomic write to shared Stats counter %s from a %s worker: concurrent charges lose updates (use a per-worker Stats and merge after the join, or pass nil)", types.ExprString(lhs), how)
				}
			}
		case *ast.IncDecStmt:
			if base := capturedStatsBase(pass, lit, n.X); base != nil {
				pass.Reportf(n.Pos(), "non-atomic update of shared Stats counter %s from a %s worker: concurrent charges lose updates (use a per-worker Stats and merge after the join, or pass nil)", types.ExprString(n.X), how)
			}
		case *ast.CallExpr:
			if callee := framework.CalleeIdent(n); callee != nil && callee.Name == "chargeWords" {
				if framework.RecvTypeName(pass.Info, n) == "Stats" {
					if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
						if base, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
							if obj := pass.Info.Uses[base]; obj != nil &&
								(obj.Pos() < lit.Pos() || obj.Pos() >= lit.End()) {
								pass.Reportf(n.Pos(), "chargeWords on shared Stats %q from a %s worker races with sibling workers (chargeWords is a plain += underneath)", base.Name, how)
							}
						}
					}
				}
			}
		}
		return true
	})
}

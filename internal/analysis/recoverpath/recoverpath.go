// Package recoverpath machine-checks the Section-4 fault-recovery rule
// that a recovery error is never discarded, using the interprocedural
// summaries of framework/summary.go. Related fault-tolerance reproductions
// rot exactly here: the happy path is exercised by every benchmark, while
// the recovery path — the FT runtime's repair (ftengine.Coder.repair), an
// f-reduce followed by erasure.Code.Solve, and softfault.Correct — only
// runs when faults are injected.
//
// Any call whose callee can, transitively, return an erasure/soft-fault
// error (erasure.Code.Decode or Solve, softfault.Correct, softfault.Verify,
// or any function with an error result that reaches one) must not discard
// that error: not with a blank `_` in the assignment, not by dropping the
// results entirely (expression statement), and not by launching the call
// via go/defer. An unchecked Solve error turns an undecodable erasure into
// silently wrong products.
//
// Matching is by name (types named Code/Corrector), so the analyzer covers
// the real tree and import-free fixtures alike.
package recoverpath

import (
	"go/ast"

	"repro/internal/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name: "recoverpath",
	Doc:  "recovery results (erasure.Code.Decode/Solve, softfault.Correct/Verify errors) must be checked",
	Run:  run,
}

func run(pass *framework.Pass) error {
	framework.FuncDecls(pass.Files, func(fd *ast.FuncDecl) {
		checkDiscards(pass, fd)
	})
	return nil
}

// recoveryCallee returns the summary of the call's target when that target
// can return a recovery error, nil otherwise.
func recoveryCallee(pass *framework.Pass, call *ast.CallExpr) *framework.Summary {
	sum := pass.Summaries.Callee(pass.Info, call)
	if sum != nil && sum.RecoveryErr {
		return sum
	}
	return nil
}

// checkDiscards enforces the rule in every function: no recovery error may
// be dropped.
func checkDiscards(pass *framework.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
				if sum := recoveryCallee(pass, call); sum != nil {
					pass.Reportf(call.Pos(), "recovery result of %s is dropped entirely: its error reports an unrecoverable erasure and must be checked", sum.Name)
				}
			}
		case *ast.GoStmt:
			if sum := recoveryCallee(pass, n.Call); sum != nil {
				pass.Reportf(n.Call.Pos(), "recovery call %s launched with go: its error result is unreachable and the erasure outcome is lost", sum.Name)
			}
		case *ast.DeferStmt:
			if sum := recoveryCallee(pass, n.Call); sum != nil {
				pass.Reportf(n.Call.Pos(), "recovery call %s deferred: its error result is discarded and the erasure outcome is lost", sum.Name)
			}
		case *ast.AssignStmt:
			// A call's error is its last result: one multi-value call on
			// the right leaves it in the last name, and otherwise each call
			// assigns its single result to its own name. Neither may be
			// blank.
			lhs := n.Lhs
			if len(lhs) > 1 && len(n.Rhs) == 1 {
				lhs = lhs[len(lhs)-1:]
			}
			if len(lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok {
					continue
				}
				if sum := recoveryCallee(pass, call); sum != nil {
					if id, ok := lhs[i].(*ast.Ident); ok && id.Name == "_" {
						pass.Reportf(call.Pos(), "error from %s is discarded with _: an undecodable erasure would pass silently — recovery must check it", sum.Name)
					}
				}
			}
		}
		return true
	})
}

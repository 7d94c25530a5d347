// Package recoverpath machine-checks the Section-4 fault-recovery
// invariants end to end, using the interprocedural summaries of
// framework/summary.go. Related fault-tolerance reproductions rot exactly
// here: the happy path is exercised by every benchmark, while the recovery
// path — an f-reduce over erasure.Decode / softfault.Correct whose error
// and erasure-index results thread back through ftparallel — only runs when
// faults are injected.
//
// Two rules:
//
//  1. Recovery results must be checked. Any call whose callee can,
//     transitively, return an erasure/soft-fault error (erasure.Decode,
//     softfault.Correct, softfault.Verify, or any function with an error
//     result that reaches one) must not discard that error: not with a
//     blank `_` in the assignment, not by dropping the results entirely
//     (expression statement), and not by launching the call via go/defer.
//     An unchecked Decode error turns an undecodable erasure into silently
//     wrong products.
//
//  2. Recovery handlers must stay inside the fault-tolerance envelope. A
//     handler — a function taking fault events (a parameter of type
//     FaultEvent or []FaultEvent) reachable from an ftparallel package —
//     runs while part of the machine is known-faulty, so it must not spawn
//     raw goroutines (directly or through a callee; the bounded worker
//     pool is the only sanctioned concurrency, and a goroutine leaked
//     during recovery outlives the repair) and must not allocate from an
//     arena its caller may still hold allocations on (the faulty path's
//     scratch could be handed to the next renter mid-repair; composes the
//     SpawnsGo and AllocsArenaParam summary facts).
//
// Matching is by name (types named Code/Corrector/FaultEvent/arena), so the
// analyzer covers the real tree and import-free fixtures alike.
package recoverpath

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name: "recoverpath",
	Doc:  "recovery results (erasure.Decode, softfault.Correct/Verify errors) must be checked, and fault-recovery handlers must not spawn raw goroutines or allocate from caller-held arenas",
	Run:  run,
}

func run(pass *framework.Pass) error {
	framework.FuncDecls(pass.Files, func(fd *ast.FuncDecl) {
		checkDiscards(pass, fd)
		checkHandler(pass, fd)
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

// checkDiscards enforces rule 1 in every function: no recovery error may be
// dropped.
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
			// Single multi-value call on the right: the error is the last
			// result, so the last LHS must not be blank.
			if len(n.Rhs) == 1 {
				if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok && len(n.Lhs) > 1 {
					if sum := recoveryCallee(pass, call); sum != nil {
						if id, ok := n.Lhs[len(n.Lhs)-1].(*ast.Ident); ok && id.Name == "_" {
							pass.Reportf(call.Pos(), "error from %s is discarded with _: an undecodable erasure would pass silently — recovery must check it", sum.Name)
						}
					}
				}
				return true
			}
			// 1:1 assignments: a single-result recovery call (the error IS
			// the result) assigned to blank.
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Rhs {
					call, ok := ast.Unparen(n.Rhs[i]).(*ast.CallExpr)
					if !ok {
						continue
					}
					sum := recoveryCallee(pass, call)
					if sum == nil {
						continue
					}
					if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
						pass.Reportf(call.Pos(), "error from %s is discarded with _: an undecodable erasure would pass silently — recovery must check it", sum.Name)
					}
				}
			}
		}
		return true
	})
}

// checkHandler enforces rule 2 on fault-recovery handlers reachable from
// ftparallel.
func checkHandler(pass *framework.Pass, fd *ast.FuncDecl) {
	fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
	sum := pass.Summaries.OfFunc(fn)
	if sum == nil || !sum.FTReach || !sum.HandlesFaults {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "recovery handler %s spawns a raw goroutine: recovery runs while part of the machine is faulty and must stay on the bounded worker pool", fd.Name.Name)
		case *ast.CallExpr:
			callee := pass.Summaries.Callee(pass.Info, n)
			if callee == nil {
				return true
			}
			if callee.SpawnsGo {
				pass.Reportf(n.Pos(), "recovery handler %s calls %s, which spawns raw goroutines: recovery must stay on the bounded worker pool", fd.Name.Name, callee.Name)
			}
			// Allocating from an arena parameter: the handler's caller —
			// the faulty evaluation path — may still hold allocations on
			// that arena.
			if recv := framework.RecvTypeName(pass.Info, n); recv == "arena" {
				if id := framework.CalleeIdent(n); id != nil && id.Name == "alloc" {
					if obj := framework.ReceiverObject(pass.Info, n); obj != nil && isParam(fd, pass, obj) {
						pass.Reportf(n.Pos(), "recovery handler %s allocates from an arena the faulty path may still hold: rent a fresh arena for repair scratch", fd.Name.Name)
					}
				}
			}
			if callee.AllocsArenaParam {
				for _, arg := range n.Args {
					id, ok := ast.Unparen(arg).(*ast.Ident)
					if !ok {
						continue
					}
					obj := pass.Info.Uses[id]
					if obj == nil || framework.NamedTypeName(obj.Type()) != "arena" || !isParam(fd, pass, obj) {
						continue
					}
					pass.Reportf(n.Pos(), "recovery handler %s passes its caller's arena to %s, which allocates from it: the faulty path may still hold that arena", fd.Name.Name, callee.Name)
				}
			}
		}
		return true
	})
}

// isParam reports whether obj is one of fd's declared parameters.
func isParam(fd *ast.FuncDecl, pass *framework.Pass, obj types.Object) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if pass.Info.Defs[name] == obj {
				return true
			}
		}
	}
	return false
}

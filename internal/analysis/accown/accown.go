// Package accown enforces the pooled-accumulator ownership protocol of
// bigint.Acc:
//
//   - every Acc obtained from NewAcc() must reach Release() in the same
//     function (typically `defer acc.Release()`), on *every* control-flow
//     path — a release hidden in one branch of an if, or skipped by an early
//     return, is a pool leak;
//   - no method may be called on an Acc after Release: the accumulator is
//     back in the pool and may already belong to someone else. This includes
//     uses that only happen on the *next* loop iteration after a release in
//     the loop body;
//   - Release must run at most once per acquisition — a double Release
//     corrupts the pool, including the release a still-armed `defer
//     acc.Release()` will run at exit after an explicit Release already ran.
//
// Since PR 3 the checks are flow-sensitive: each Acc's lifecycle runs
// through the framework's CFG + dataflow protocol checker (see
// framework/protocol.go), so branch-only releases and loop-carried
// released states are real fixpoint facts, not lexical approximations.
//
// Since PR 4 the checks are also interprocedural: an Acc passed to another
// declared function is classified through that callee's summary
// (framework/summary.go) — a helper that releases it on every path counts
// as the release, a helper that only uses it leaves the obligation with the
// caller, and only helpers that store it (or code without a summary)
// transfer ownership and end local tracking. Deferred releases are modeled
// as armed protocol states rather than exempting the object, so a deferred
// release in one branch covers only the paths that execute it, and an Acc
// captured by a non-deferred closure escapes.
//
// Take() hands off the accumulated *value* (the Acc stays usable and still
// owes a Release); an Acc that is returned or stored transfers ownership
// and is exempted from the local checks. Matching is by name (NewAcc,
// methods on a type named "Acc"), so the analyzer covers both the real tree
// and import-free fixtures.
package accown

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name: "accown",
	Doc:  "check that every NewAcc reaches Release on all paths (flow-sensitive, through helper calls) and that no Acc is used after Release",
	Run:  run,
}

func run(pass *framework.Pass) error {
	framework.FuncDecls(pass.Files, func(fd *ast.FuncDecl) {
		checkFunc(pass, fd)
	})
	return nil
}

func checkFunc(pass *framework.Pass, fd *ast.FuncDecl) {
	defers := framework.CollectDeferRanges(fd.Body)
	closures := framework.CollectBareClosures(fd.Body)

	accs := make(map[types.Object]*framework.Lifecycle)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE && len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					id, ok := n.Lhs[i].(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					call, ok := ast.Unparen(n.Rhs[i]).(*ast.CallExpr)
					if !ok {
						continue
					}
					if callee := framework.CalleeIdent(call); callee != nil && callee.Name == "NewAcc" {
						if obj := pass.Info.Defs[id]; obj != nil {
							accs[obj] = framework.NewLifecycle(call.Pos(), "NewAcc")
						}
					}
				}
			}
		case *ast.ReturnStmt:
			// An Acc returned escapes local ownership.
			for _, expr := range n.Results {
				if id, ok := ast.Unparen(expr).(*ast.Ident); ok {
					if lc := accs[pass.Info.Uses[id]]; lc != nil {
						lc.Escaped = true
					}
				}
			}
		case *ast.CallExpr:
			// Method call on a tracked Acc variable.
			if framework.RecvTypeName(pass.Info, n) == "Acc" {
				if lc := accs[framework.ReceiverObject(pass.Info, n)]; lc != nil {
					if callee := framework.CalleeIdent(n); callee != nil {
						kind := framework.ProtoUse
						if callee.Name == "Release" {
							kind = framework.ProtoRelease
						}
						lc.Place(defers, closures, n.Pos(), kind, callee.Name)
					}
				}
			}
			// An Acc passed as a plain argument: consult the callee's summary
			// instead of assuming an ownership transfer.
			for i, arg := range n.Args {
				id, ok := ast.Unparen(arg).(*ast.Ident)
				if !ok {
					continue
				}
				lc := accs[pass.Info.Uses[id]]
				if lc == nil {
					continue
				}
				name := "call"
				if callee := framework.CalleeIdent(n); callee != nil {
					name = callee.Name
				}
				switch pass.Summaries.ArgEffect(pass.Info, n, i) {
				case framework.ArgRelease:
					lc.Place(defers, closures, n.Pos(), framework.ProtoRelease, name)
				case framework.ArgUse:
					lc.Place(defers, closures, n.Pos(), framework.ProtoUse, name)
				default:
					lc.Escaped = true
				}
			}
		case *ast.FuncLit:
			// A bare closure capturing the Acc may run at any time (or
			// never): any reference inside ends local tracking. Deferred
			// closures are handled by the defer rules in Place.
			if !closures.Contains(n.Pos()) {
				return true
			}
			ast.Inspect(n.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if lc := accs[pass.Info.Uses[id]]; lc != nil {
						lc.Escaped = true
					}
				}
				return true
			})
		}
		return true
	})

	if len(accs) == 0 {
		return
	}
	cfg := framework.NewCFG(fd.Body)
	for obj, lc := range accs {
		framework.CheckLifecycle(pass, cfg, fd.Body, obj, lc, accMessages)
	}
}

var accMessages = framework.LifecycleMessages{
	NeverReleased: "Acc %[1]q from NewAcc is never released back to the pool (add `defer %[1]s.Release()`)",
	Kinds: map[framework.ProtoFindingKind]string{
		framework.LeakReturn:                "return leaks Acc %q: Release is not deferred and has not run yet on this path",
		framework.LeakReturnPartial:         "return leaks Acc %q on some path: Release does not run on every path reaching this return",
		framework.LeakExit:                  "function exit leaks Acc %q: Release never runs before falling off the end",
		framework.LeakExitPartial:           "Acc %q is not released on every path to the function exit (Release runs in a branch or loop that may be skipped)",
		framework.UseAfterRelease:           "use of Acc %q after Release: the accumulator is back in the pool",
		framework.UseAfterReleasePartial:    "use of Acc %q after Release on some path (a branch or previous loop iteration already released it)",
		framework.DoubleRelease:             "Acc %q released twice: the second Release corrupts the pool",
		framework.DoubleReleasePartial:      "Acc %q may be released twice (a path reaches this Release with the Acc already released)",
		framework.DeferDoubleRelease:        "Acc %q exits already released with `defer Release` still armed: the defer releases it a second time",
		framework.DeferDoubleReleasePartial: "Acc %q may exit already released with `defer Release` still armed (some path releases it explicitly before the defer fires)",
	},
}

// Package arenasafe enforces the limb-arena ownership discipline of
// internal/bigint (see arena.go there):
//
//   - every arena rented with getArena must be returned with putArena in the
//     same function, on *every* control-flow path — a putArena hidden in one
//     branch, skipped by an early return, or never reached from a loop's
//     zero-iteration path is a rental leak;
//   - no arena method may run after putArena (the slab belongs to the next
//     renter), including uses reached over a loop back edge;
//   - every mark() result must feed a matching release() on every path, and
//     release() must only ever be given a value produced by mark();
//   - ensure() may only run while the arena is empty, so it must precede any
//     alloc() on the same arena in the function;
//   - a slice produced by alloc() must not escape through a return — after
//     putArena the backing slab is reused by the next renter.
//
// Since PR 3 the pairing checks are flow-sensitive: each arena's and each
// mark's lifecycle runs through the framework's CFG + dataflow protocol
// checker (framework/protocol.go), so release-in-one-branch and
// use-after-put-behind-a-loop are fixpoint facts rather than lexical
// position comparisons.
//
// Since PR 4 helper calls are classified through interprocedural summaries
// (framework/summary.go): a helper that provably returns the arena with
// putArena on every path counts as the release, a helper that only
// allocates from it leaves the obligation with the caller, and a helper
// that stores the arena (or code without a summary) ends local tracking.
// Deferred putArena is modeled as an armed protocol state instead of a
// blanket exemption, so a defer in one branch covers only the paths that
// execute it and an explicit putArena under an armed defer is a caught
// double-return. Matching stays by name (getArena/putArena, methods on a
// type named "arena"), so the analyzer works on the real tree and on
// import-free test fixtures alike.
package arenasafe

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name: "arenasafe",
	Doc:  "check getArena/putArena pairing and mark/release balance on all paths (through helper calls), ensure-before-alloc, and arena-slice escapes",
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

	arenas := make(map[types.Object]*framework.Lifecycle) // var := getArena()
	marks := make(map[types.Object]*framework.Lifecycle)  // m := ar.mark()
	allocVars := make(map[types.Object]token.Pos)         // z := ar.alloc(n)
	firstAlloc := make(map[types.Object]token.Pos)        // arena -> earliest alloc pos

	recordDef := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := pass.Info.Defs[id]
		if obj == nil {
			return
		}
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			return
		}
		if callee := framework.CalleeIdent(call); callee != nil && callee.Name == "getArena" {
			arenas[obj] = framework.NewLifecycle(call.Pos(), "getArena")
			return
		}
		if recv := framework.RecvTypeName(pass.Info, call); recv == "arena" {
			callee := framework.CalleeIdent(call)
			switch callee.Name {
			case "mark":
				marks[obj] = framework.NewLifecycle(call.Pos(), "mark")
			case "alloc":
				allocVars[obj] = call.Pos()
			}
		}
	}

	var returns []*ast.ReturnStmt
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE && len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					recordDef(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ReturnStmt:
			returns = append(returns, n)
		case *ast.FuncLit:
			// A bare closure capturing a tracked arena or mark may run at
			// any time (or never): any reference inside ends tracking.
			if !closures.Contains(n.Pos()) {
				return true
			}
			ast.Inspect(n.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					obj := pass.Info.Uses[id]
					if lc := arenas[obj]; lc != nil {
						lc.Escaped = true
					}
					if lc := marks[obj]; lc != nil {
						lc.Escaped = true
					}
				}
				return true
			})
		case *ast.CallExpr:
			callee := framework.CalleeIdent(n)
			if callee == nil {
				// A call through a func value: any tracked arena among the
				// arguments is out of local reach.
				for _, arg := range n.Args {
					if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
						if lc := arenas[pass.Info.Uses[id]]; lc != nil {
							lc.Escaped = true
						}
					}
				}
				return true
			}
			if callee.Name == "putArena" && len(n.Args) == 1 {
				if id, ok := ast.Unparen(n.Args[0]).(*ast.Ident); ok {
					if lc := arenas[pass.Info.Uses[id]]; lc != nil {
						lc.Place(defers, closures, n.Pos(), framework.ProtoRelease, "putArena")
					}
				}
				return true
			}
			if framework.RecvTypeName(pass.Info, n) != "arena" {
				// A tracked arena passed to a helper: the callee's summary
				// says whether the helper returns it (counts as the
				// putArena), merely allocates from it (a use — the caller
				// still owes the return), or stores it (tracking ends).
				for i, arg := range n.Args {
					id, ok := ast.Unparen(arg).(*ast.Ident)
					if !ok {
						continue
					}
					lc := arenas[pass.Info.Uses[id]]
					if lc == nil {
						continue
					}
					switch pass.Summaries.ArgEffect(pass.Info, n, i) {
					case framework.ArgRelease:
						lc.Place(defers, closures, n.Pos(), framework.ProtoRelease, callee.Name)
					case framework.ArgUse:
						lc.Place(defers, closures, n.Pos(), framework.ProtoUse, callee.Name)
					default:
						lc.Escaped = true
					}
				}
				return true
			}
			recvObj := framework.ReceiverObject(pass.Info, n)
			if lc := arenas[recvObj]; lc != nil {
				lc.Place(defers, closures, n.Pos(), framework.ProtoUse, callee.Name)
			}
			switch callee.Name {
			case "alloc":
				if recvObj != nil {
					if first, ok := firstAlloc[recvObj]; !ok || n.Pos() < first {
						firstAlloc[recvObj] = n.Pos()
					}
				}
			case "ensure":
				if recvObj != nil {
					if first, ok := firstAlloc[recvObj]; ok && first < n.Pos() {
						pass.Reportf(n.Pos(), "ensure() called with outstanding allocations: alloc() on the same arena at %s precedes it (ensure must run on an empty arena)",
							pass.Fset.Position(first))
					}
				}
			case "release":
				if len(n.Args) == 1 {
					id, ok := ast.Unparen(n.Args[0]).(*ast.Ident)
					if !ok {
						pass.Reportf(n.Pos(), "release() argument does not come from mark()")
						return true
					}
					obj := pass.Info.Uses[id]
					if lc := marks[obj]; lc != nil {
						lc.Place(defers, closures, n.Pos(), framework.ProtoRelease, "release")
					} else {
						pass.Reportf(n.Pos(), "release() argument %q does not come from mark()", id.Name)
					}
				}
			}
		}
		return true
	})

	if len(arenas)+len(marks) > 0 {
		cfg := framework.NewCFG(fd.Body)

		for obj, lc := range arenas {
			framework.CheckLifecycle(pass, cfg, fd.Body, obj, lc, arenaMessages)
		}
		for obj, lc := range marks {
			framework.CheckLifecycle(pass, cfg, fd.Body, obj, lc, markMessages)
		}
	}

	for _, ret := range returns {
		for _, expr := range ret.Results {
			ast.Inspect(expr, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := pass.Info.Uses[id]
				if obj == nil {
					return true
				}
				if _, isAlloc := allocVars[obj]; isAlloc {
					pass.Reportf(ret.Pos(), "arena-allocated slice %q escapes via return: the backing slab is recycled by putArena", id.Name)
				}
				return true
			})
		}
	}
}

var arenaMessages = framework.LifecycleMessages{
	NeverReleased: "arena %q obtained from getArena is never returned with putArena",
	Kinds: map[framework.ProtoFindingKind]string{
		framework.LeakReturn:                "return leaks arena %q: putArena is not deferred and has not run yet on this path",
		framework.LeakReturnPartial:         "return leaks arena %q on some path: putArena does not run on every path reaching this return",
		framework.LeakExit:                  "function exit leaks arena %q: putArena never runs before falling off the end",
		framework.LeakExitPartial:           "arena %q is not returned with putArena on every path to the function exit",
		framework.UseAfterRelease:           "use of arena %q after putArena: the slab may already belong to the next renter",
		framework.UseAfterReleasePartial:    "use of arena %q after putArena on some path (a branch or previous loop iteration already returned it)",
		framework.DoubleRelease:             "arena %q returned twice with putArena: the pool now holds it twice",
		framework.DoubleReleasePartial:      "arena %q may be returned twice with putArena (a path reaches this putArena with the arena already returned)",
		framework.DeferDoubleRelease:        "arena %q exits already returned with `defer putArena` still armed: the defer returns it a second time",
		framework.DeferDoubleReleasePartial: "arena %q may exit already returned with `defer putArena` still armed (some path returns it explicitly before the defer fires)",
	},
}

var markMessages = framework.LifecycleMessages{
	NeverReleased: "mark() result %q has no matching release() in this function",
	Kinds: map[framework.ProtoFindingKind]string{
		framework.LeakReturn:                "return leaves mark %q unreleased: release() has not run on this path",
		framework.LeakReturnPartial:         "return leaves mark %q unreleased on some path: release() does not run on every path reaching this return",
		framework.LeakExit:                  "function exit leaves mark %q unreleased",
		framework.LeakExitPartial:           "mark %q is not released on every path to the function exit",
		framework.UseAfterRelease:           "",
		framework.UseAfterReleasePartial:    "",
		framework.DoubleRelease:             "mark %q released twice: the second release() rewinds an arena that may have live allocations",
		framework.DoubleReleasePartial:      "mark %q may be released twice (a path reaches this release() with the mark already released)",
		framework.DeferDoubleRelease:        "mark %q exits already released with a deferred release() still armed: the defer rewinds it a second time",
		framework.DeferDoubleReleasePartial: "mark %q may exit already released with a deferred release() still armed (some path releases it explicitly before the defer fires)",
	},
}

// Package accown checks that every pooled bigint.Acc follows the one
// idiom the tree uses for it:
//
//	acc := bigint.NewAcc()
//	defer acc.Release()
//
// It reports four departures:
//
//   - a NewAcc call that is not the right-hand side of a `:=` defining a
//     plain name;
//   - an acquired name that no `defer name.Release()` releases among the
//     defers right after the acquisition, in the same statement list (a
//     block or a case clause);
//   - a Release of an Acc called anywhere else;
//   - an acquired name used other than as a method receiver or a call
//     argument: assigned, returned, address-taken or captured by a closure.
//
// No dataflow is needed for the pool's protocol to hold in the function.
// The deferred Release runs once, when the function returns, after every
// use the function makes. No other Release can run, so none runs twice or
// early. And the function cannot keep an Acc it never assigns, returns or
// captures. (A callee that stores its argument is not checked; no callee
// in the tree does.) Take hands off the accumulated value, not the Acc, so
// it is a use like any other method. Correct code in another shape (an
// explicit Release after the last use, a helper that releases its
// parameter, a release in a deferred closure) is a finding too: write it
// in the idiom, or audit it with an `ftlint:allow accown` comment.
//
// Matching is by name (NewAcc, and methods on a type named "Acc"), so the
// analyzer covers both the real tree and import-free fixtures.
package accown

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name: "accown",
	Doc:  "check that every NewAcc is bound by :=, released by a defer right after it, and never escapes",
	Run:  run,
}

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		checkFile(pass, f)
	}
	return nil
}

// checkFile applies the four rules to one file in a single walk. A node is
// visited before its children, so a statement list's deferred releases are
// known before their calls are reached, a `:=` before its NewAcc calls, and
// an acquisition before any use of its name.
func checkFile(pass *framework.Pass, f *ast.File) {
	bound := map[*ast.CallExpr]types.Object{} // NewAcc call -> the name its := defines
	acquired := map[types.Object]bool{}       // the names in bound
	deferred := map[types.Object]bool{}       // names the defers right after release
	idiom := map[*ast.CallExpr]bool{}         // the Release calls of those defers
	stray := map[types.Object]bool{}          // names some other Release releases
	var stack []ast.Node

	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.AssignStmt:
			for obj, call := range acquisitions(pass.Info, n) {
				bound[call] = obj
				acquired[obj] = true
			}
		case *ast.BlockStmt:
			deferredReleases(pass.Info, n.List, deferred, idiom)
		case *ast.CaseClause:
			deferredReleases(pass.Info, n.Body, deferred, idiom)
		case *ast.CommClause:
			deferredReleases(pass.Info, n.Body, deferred, idiom)
		case *ast.CallExpr:
			if isNewAcc(n) && bound[n] == nil {
				pass.Reportf(n.Pos(), "NewAcc is not the right-hand side of a `:=` defining a plain name: write `acc := NewAcc()` with `defer acc.Release()` right after it")
			}
			if isRelease(pass.Info, n) && !idiom[n] {
				stray[framework.ReceiverObject(pass.Info, n)] = true
				pass.Reportf(n.Pos(), "Release of an Acc outside the `defer x.Release()` right after its `x := NewAcc()`: anywhere else it can run twice, early, or not at all")
			}
		case *ast.Ident:
			if obj := pass.Info.Uses[n]; acquired[obj] && !plainUse(stack, obj) {
				pass.Reportf(n.Pos(), "Acc %q from NewAcc is used other than as a method receiver or a call argument: assigned, returned, address-taken or captured, it can outlive its deferred Release", n.Name)
			}
		}
		return true
	})

	for call, obj := range bound { // Run sorts the findings
		switch {
		case deferred[obj]: // the idiom
		case stray[obj]:
			pass.Reportf(call.Pos(), "Acc %[1]q from NewAcc is not released by a `defer %[1]s.Release()` right after the acquisition", obj.Name())
		default:
			pass.Reportf(call.Pos(), "Acc %[1]q from NewAcc is never released back to the pool (add `defer %[1]s.Release()`)", obj.Name())
		}
	}
}

// acquisitions maps each new plain name a `:=` defines with NewAcc to that
// NewAcc call.
func acquisitions(info *types.Info, as *ast.AssignStmt) map[types.Object]*ast.CallExpr {
	if as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
		return nil
	}
	out := map[types.Object]*ast.CallExpr{}
	for i, rhs := range as.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		id, isIdent := as.Lhs[i].(*ast.Ident)
		if ok && isIdent && isNewAcc(call) && info.Defs[id] != nil {
			out[info.Defs[id]] = call
		}
	}
	return out
}

// deferredReleases records, for each acquisition in a statement list, the
// names released by the run of `defer name.Release()` right after it.
func deferredReleases(info *types.Info, list []ast.Stmt, deferred map[types.Object]bool, idiom map[*ast.CallExpr]bool) {
	for i, s := range list {
		as, ok := s.(*ast.AssignStmt)
		if !ok {
			continue
		}
		names := acquisitions(info, as)
		for _, next := range list[i+1:] {
			d, ok := next.(*ast.DeferStmt)
			if !ok || !isRelease(info, d.Call) {
				break
			}
			obj := framework.ReceiverObject(info, d.Call)
			if names[obj] == nil {
				break
			}
			deferred[obj] = true
			idiom[d.Call] = true
		}
	}
}

// plainUse reports whether the identifier on top of stack, which names
// obj, is a method call's receiver or a call argument, and not inside a
// closure that obj is declared outside of.
func plainUse(stack []ast.Node, obj types.Object) bool {
	for _, n := range stack {
		if fl, ok := n.(*ast.FuncLit); ok && fl.Pos() > obj.Pos() {
			return false
		}
	}
	id := stack[len(stack)-1].(*ast.Ident)
	switch p := stack[len(stack)-2].(type) {
	case *ast.SelectorExpr:
		call, ok := stack[len(stack)-3].(*ast.CallExpr)
		return p.X == id && ok && call.Fun == p
	case *ast.CallExpr:
		for _, arg := range p.Args {
			if arg == id {
				return true
			}
		}
	}
	return false
}

func isNewAcc(call *ast.CallExpr) bool {
	id := framework.CalleeIdent(call)
	return id != nil && id.Name == "NewAcc"
}

func isRelease(info *types.Info, call *ast.CallExpr) bool {
	id := framework.CalleeIdent(call)
	return id != nil && id.Name == "Release" && framework.RecvTypeName(info, call) == "Acc"
}

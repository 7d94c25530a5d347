package framework

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Shared syntactic/semantic helpers for the ftlint analyzers. Everything
// here matches by *name* (function name, named-type name) rather than by
// package identity: the same analyzer then works both on the real tree and
// on the self-contained testdata fixtures, which declare miniature stand-ins
// for arena/Acc/Int/Stats/Proc instead of importing repro packages.

// CalleeIdent returns the rightmost identifier of a call's function
// expression: f(...) -> f, pkg.F(...) -> F, x.m(...) -> m. Nil when the
// callee is not a plain (possibly selected) identifier.
func CalleeIdent(call *ast.CallExpr) *ast.Ident {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fn
	case *ast.SelectorExpr:
		return fn.Sel
	}
	return nil
}

// CalleeFunc resolves the called function or method object, when the callee
// is a declared func (not a func-typed variable or a conversion).
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	id := CalleeIdent(call)
	if id == nil {
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// NamedTypeName unwraps pointers and returns the name of the underlying
// named type ("" for unnamed types).
func NamedTypeName(t types.Type) string {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	type hasObj interface{ Obj() *types.TypeName }
	if n, ok := t.(hasObj); ok { // *types.Named and *types.Alias both qualify
		return n.Obj().Name()
	}
	return ""
}

// RecvTypeName returns the receiver type name of a method call expression
// ("" when the call is not a method call).
func RecvTypeName(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
		return NamedTypeName(s.Recv())
	}
	// Method expression or package-qualified function.
	if fn, ok := info.Uses[sel.Sel].(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return NamedTypeName(sig.Recv().Type())
		}
	}
	return ""
}

// ReceiverObject resolves the object of a method call's receiver when the
// receiver expression is a plain identifier (nil otherwise).
func ReceiverObject(info *types.Info, call *ast.CallExpr) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil
	}
	return info.Uses[id]
}

// DeferSpan is the position span of one defer statement plus the position
// of its deferred CallExpr (the anchor for protocol events: for
// `defer f(x)` that is f's call, for `defer func() { ... }()` the closure
// invocation — the node a CFG walk actually visits).
type DeferSpan struct {
	Start, End token.Pos
	CallPos    token.Pos
}

// DeferRanges records every defer statement in a function body, so analyzers
// can ask whether a call runs deferred (either `defer f(x)` directly or
// inside a deferred closure) and where the registration is anchored.
type DeferRanges []DeferSpan

// CollectDeferRanges gathers the spans of all DeferStmts under root.
func CollectDeferRanges(root ast.Node) DeferRanges {
	var spans DeferRanges
	ast.Inspect(root, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			spans = append(spans, DeferSpan{Start: d.Pos(), End: d.End(), CallPos: d.Call.Pos()})
		}
		return true
	})
	return spans
}

// CallAt returns the deferred CallExpr position of the innermost defer
// statement containing pos (false when pos is not deferred).
func (r DeferRanges) CallAt(pos token.Pos) (token.Pos, bool) {
	best := -1
	for i, s := range r {
		if pos < s.Start || pos >= s.End {
			continue
		}
		if best < 0 || s.Start >= r[best].Start {
			best = i // innermost: latest start among containing spans
		}
	}
	if best < 0 {
		return token.NoPos, false
	}
	return r[best].CallPos, true
}

// PathHasSegment reports whether an import path contains seg as a complete
// path segment ("repro/internal/toom" has segment "toom" but not "too").
func PathHasSegment(path, seg string) bool {
	for len(path) > 0 {
		i := 0
		for i < len(path) && path[i] != '/' {
			i++
		}
		if path[:i] == seg {
			return true
		}
		if i == len(path) {
			break
		}
		path = path[i+1:]
	}
	return false
}

// InspectShallow walks the AST rooted at n like ast.Inspect but does not
// descend into function literals: a closure's body executes when the closure
// is *called*, not where it is written, so flow-sensitive analyzers walking
// CFG block nodes must not attribute its effects to the enclosing function's
// program point. The literal node itself is still visited.
func InspectShallow(n ast.Node, f func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return true
		}
		if _, ok := m.(*ast.FuncLit); ok {
			f(m)
			return false
		}
		return f(m)
	})
}

// FuncDecls calls fn for every function declaration with a body.
func FuncDecls(files []*ast.File, fn func(*ast.FuncDecl)) {
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}

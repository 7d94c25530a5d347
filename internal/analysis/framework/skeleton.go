package framework

// skeleton.go answers the one static question protomc asks about a
// protocol's communication skeleton: can this call communicate? Whether a
// call tree can be modeled at all is not asked here: the shared evaluator
// (eval.go) runs the real bodies and fails visibly, at the construct, on
// anything it does not model (raw goroutines, select, channels, loops it
// cannot decide).
//
// A transport verb is a method call whose receiver's named type is Proc
// and whose name is one of the communication verbs; chanproto classifies
// its sites with the same CommSiteAt. The name-based match lets the same
// classifier work on the real machine.Proc and on the miniature stand-ins
// the self-contained test fixtures declare. Whether a declared function
// can communicate is the summary bit Summary.Communicates (summary.go):
// MayCommunicate over its body, with callees answered by their summaries.

import (
	"go/ast"
	"go/types"
)

// commTagArg maps each communication verb to the index of its tag (or
// barrier phase) argument.
var commTagArg = map[string]int{"Send": 1, "Recv": 1, "RecvDeadline": 1, "Barrier": 0}

// CommSite is one communication operation: its verb and its tag expression
// (the phase expression for barriers).
type CommSite struct {
	Method string
	Tag    ast.Expr
}

// CommSiteAt returns the comm site for a call expression, if the call is
// communication.
func CommSiteAt(info *types.Info, call *ast.CallExpr) (CommSite, bool) {
	if RecvTypeName(info, call) != "Proc" {
		return CommSite{}, false
	}
	id := CalleeIdent(call)
	if id == nil {
		return CommSite{}, false
	}
	i, ok := commTagArg[id.Name]
	if !ok || len(call.Args) <= i {
		return CommSite{}, false
	}
	return CommSite{Method: id.Name, Tag: call.Args[i]}, true
}

// unfollowedMethod reports a method of an interface declared outside the
// model boundary: the call graph has no edge to its implementations, so it
// may reach any of them. The universe's error.Error only renders text.
func unfollowedMethod(fn *types.Func) bool {
	sig, _ := fn.Type().(*types.Signature)
	return sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) &&
		fn.Pkg() != nil && !ModelBoundaryPkg(fn.Pkg().Path())
}

// funcValueCall reports a call through a func-typed value (a closure
// variable, a hook field, a func parameter), whose target no static answer
// can see. A function literal called in place is not one: its body lies
// under the call.
func funcValueCall(info *types.Info, call *ast.CallExpr) bool {
	fun := ast.Unparen(call.Fun)
	if _, lit := fun.(*ast.FuncLit); lit {
		return false
	}
	tv, ok := info.Types[fun]
	if !ok || tv.IsType() || tv.IsBuiltin() {
		return false
	}
	_, isSig := tv.Type.Underlying().(*types.Signature)
	return isSig
}

// MayCommunicate reports whether any call under root can communicate: a
// transport verb, a callee whose summary Communicates, or a call the call
// graph cannot follow (a method of an interface declared outside the model
// boundary, a call through a func-typed value).
func (s *Summaries) MayCommunicate(info *types.Info, root ast.Node) bool {
	found := false
	ast.Inspect(root, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		if _, isComm := CommSiteAt(info, call); isComm {
			found = true
		} else if fn := CalleeFunc(info, call); fn == nil {
			found = funcValueCall(info, call)
		} else if sum := s.OfFunc(fn); sum != nil {
			found = sum.Communicates
		} else {
			found = unfollowedMethod(fn)
		}
		return !found
	})
	return found
}

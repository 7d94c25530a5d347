package framework

import (
	"go/ast"
	"testing"
)

// callsIn reports whether block b contains a call to a function named name
// (shallow: closure bodies excluded).
func callsIn(b *Block, name string) bool {
	found := false
	for _, n := range b.Nodes {
		InspectShallow(n, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == name {
					found = true
				}
			}
			return true
		})
	}
	return found
}

// boolSpec is a may-analysis over bool facts: Join is OR, and a block's
// transfer sets the fact once it contains a call to trigger.
func boolSpec(trigger string) FlowSpec[bool] {
	return FlowSpec[bool]{
		Bottom:   func() bool { return false },
		Boundary: func() bool { return false },
		Join:     func(a, b bool) bool { return a || b },
		Equal:    func(a, b bool) bool { return a == b },
		Transfer: func(b *Block, in bool) bool { return in || callsIn(b, "mark") },
	}
}

func TestForwardSolveBranch(t *testing.T) {
	fset, g := parseFunc(t, `package p
func f(c bool) {
	if c {
		mark()
	}
	after()
	mark2()
}
func mark(){}; func after(){}; func mark2(){}`)

	res := ForwardSolve(g, boolSpec("mark"))
	after := blockAtLine(fset, g, 6)
	if !res.In[after] {
		t.Error("fact from one branch should survive the join in a may-analysis")
	}
	markBlk := blockAtLine(fset, g, 4)
	if res.In[markBlk] {
		t.Error("fact set before the marking block executes")
	}
	if !res.Out[markBlk] {
		t.Error("transfer did not set the fact in the marking block")
	}
}

func TestForwardSolveLoopFixpoint(t *testing.T) {
	fset, g := parseFunc(t, `package p
func f(n int) {
	for i := 0; i < n; i++ {
		head()
		mark()
	}
	after()
}
func head(){}; func mark(){}; func after(){}`)

	res := ForwardSolve(g, boolSpec("mark"))
	// The back edge must carry the fact into the next iteration's first
	// statement: head() is reached both marked (iteration ≥ 2) and unmarked
	// (iteration 1), and a may-analysis keeps the marked state.
	head := blockAtLine(fset, g, 4)
	if !res.In[head] {
		t.Error("loop back edge did not propagate the fact to the body head")
	}
	if !res.In[blockAtLine(fset, g, 7)] {
		t.Error("fact lost after the loop")
	}
}

func TestForwardSolveUnreachableStaysBottom(t *testing.T) {
	fset, g := parseFunc(t, `package p
func f() {
	mark()
	return
	dead()
}
func mark(){}; func dead(){}`)

	res := ForwardSolve(g, boolSpec("mark"))
	dead := blockAtLine(fset, g, 5)
	if res.In[dead] || res.Out[dead] {
		t.Error("unreachable block acquired a non-Bottom fact")
	}
}

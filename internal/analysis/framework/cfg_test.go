package framework

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseFunc parses src (a full file starting with "package p") and builds
// the CFG of its first function declaration.
func parseFunc(t *testing.T, src string) (*token.FileSet, *CFG) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "t.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			return fset, NewCFG(fd.Body)
		}
	}
	t.Fatal("no function in source")
	return nil, nil
}

// blockAtLine returns the first block holding a node that starts on line.
func blockAtLine(fset *token.FileSet, g *CFG, line int) *Block {
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if fset.Position(n.Pos()).Line == line {
				return b
			}
		}
	}
	return nil
}

// returnStmt returns the block's trailing return statement, or nil.
func returnStmt(b *Block) *ast.ReturnStmt {
	if len(b.Nodes) == 0 {
		return nil
	}
	r, _ := b.Nodes[len(b.Nodes)-1].(*ast.ReturnStmt)
	return r
}

// reaches reports whether to is reachable from from along Succs edges.
func reaches(from, to *Block) bool {
	seen := map[*Block]bool{}
	stack := []*Block{from}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if b == to {
			return true
		}
		if seen[b] {
			continue
		}
		seen[b] = true
		stack = append(stack, b.Succs...)
	}
	return false
}

func TestCFGIfElseJoin(t *testing.T) {
	fset, g := parseFunc(t, `package p
func f(c bool) {
	a()
	if c {
		b1()
	} else {
		b2()
	}
	d()
}
func a(){}; func b1(){}; func b2(){}; func d(){}`)

	b1 := blockAtLine(fset, g, 5)
	b2 := blockAtLine(fset, g, 7)
	d := blockAtLine(fset, g, 9)
	if b1 == nil || b2 == nil || d == nil {
		t.Fatalf("missing blocks: then=%v else=%v join=%v", b1, b2, d)
	}
	if b1 == b2 {
		t.Fatal("then and else share a block")
	}
	for _, br := range []*Block{b1, b2} {
		if !reaches(br, d) {
			t.Errorf("branch %s does not reach the join statement", br)
		}
	}
	cond := blockAtLine(fset, g, 3) // a() and the condition share the pre-branch block
	if len(cond.Succs) != 2 {
		t.Errorf("condition block %s should have 2 successors", cond)
	}
}

func TestCFGIfWithoutElseSkipEdge(t *testing.T) {
	fset, g := parseFunc(t, `package p
func f(c bool) {
	if c {
		b1()
	}
	d()
}
func b1(){}; func d(){}`)

	cond := g.Entry.Succs[0]
	d := blockAtLine(fset, g, 6)
	b1 := blockAtLine(fset, g, 4)
	if b1 == nil || d == nil {
		t.Fatal("missing blocks")
	}
	if b1 == d {
		t.Fatal("then body merged into join block")
	}
	// The skip path must reach d without passing through the then-branch.
	seen := map[*Block]bool{b1: true}
	stack := []*Block{cond}
	found := false
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if b == d {
			found = true
			break
		}
		if seen[b] {
			continue
		}
		seen[b] = true
		stack = append(stack, b.Succs...)
	}
	if !found {
		t.Error("if-without-else has no skip edge around the then-branch")
	}
}

func TestCFGForLoopBackEdgeAndExit(t *testing.T) {
	fset, g := parseFunc(t, `package p
func f(n int) {
	for i := 0; i < n; i++ {
		body()
	}
	after()
}
func body(){}; func after(){}`)

	body := blockAtLine(fset, g, 4)
	after := blockAtLine(fset, g, 6)
	if body == nil || after == nil {
		t.Fatal("missing loop body or after block")
	}
	if !reaches(body, body) {
		t.Error("no back edge: loop body cannot reach itself")
	}
	if !reaches(body, after) {
		t.Error("loop body cannot reach the loop exit")
	}
	if !reaches(g.Entry, after) {
		t.Error("zero-iteration path missing: after() unreachable from entry")
	}
}

func TestCFGRangeBackEdge(t *testing.T) {
	fset, g := parseFunc(t, `package p
func f(xs []int) {
	for _, x := range xs {
		use(x)
	}
	after()
}
func use(int){}; func after(){}`)

	body := blockAtLine(fset, g, 4)
	after := blockAtLine(fset, g, 6)
	if !reaches(body, body) {
		t.Error("range body has no back edge")
	}
	if !reaches(g.Entry, after) || !reaches(body, after) {
		t.Error("range exit edges missing")
	}
}

func TestCFGEarlyReturn(t *testing.T) {
	fset, g := parseFunc(t, `package p
func f(c bool) int {
	if c {
		return 1
	}
	tail()
	return 2
}
func tail(){}`)

	ret1 := blockAtLine(fset, g, 4)
	tail := blockAtLine(fset, g, 6)
	if ret1 == nil || tail == nil {
		t.Fatal("missing blocks")
	}
	if len(ret1.Succs) != 1 || ret1.Succs[0] != g.Exit {
		t.Errorf("return block %s must link only to Exit", ret1)
	}
	if returnStmt(ret1) == nil {
		t.Error("returnStmt nil for a return block")
	}
	if reaches(ret1, tail) {
		t.Error("flow continues past return")
	}
}

func TestCFGUnreachableAfterReturn(t *testing.T) {
	fset, g := parseFunc(t, `package p
func f() {
	return
	dead()
}
func dead(){}`)

	dead := blockAtLine(fset, g, 4)
	if dead == nil {
		t.Fatal("dead statement not placed in any block")
	}
	if reaches(g.Entry, dead) {
		t.Error("statement after return is reachable from entry")
	}
}

func TestCFGSwitchFallthroughAndDefault(t *testing.T) {
	fset, g := parseFunc(t, `package p
func f(x int) {
	switch x {
	case 1:
		one()
		fallthrough
	case 2:
		two()
	default:
		other()
	}
	after()
}
func one(){}; func two(){}; func other(){}; func after(){}`)

	one := blockAtLine(fset, g, 5)
	two := blockAtLine(fset, g, 8)
	other := blockAtLine(fset, g, 10)
	after := blockAtLine(fset, g, 12)
	if one == nil || two == nil || other == nil || after == nil {
		t.Fatal("missing case blocks")
	}
	if !reaches(one, two) {
		t.Error("fallthrough edge from case 1 to case 2 missing")
	}
	for _, c := range []*Block{two, other} {
		if !reaches(c, after) {
			t.Errorf("case block %s does not reach the join", c)
		}
	}
	if reaches(two, one) {
		t.Error("backwards edge between cases")
	}
}

func TestCFGSwitchNoDefaultSkips(t *testing.T) {
	fset, g := parseFunc(t, `package p
func f(x int) {
	pre()
	switch x {
	case 1:
		one()
	}
	after()
}
func pre(){}; func one(){}; func after(){}`)

	pre := blockAtLine(fset, g, 3)
	one := blockAtLine(fset, g, 6)
	after := blockAtLine(fset, g, 8)
	if !reaches(pre, after) {
		t.Error("no-default switch lost its skip path")
	}
	if !reaches(one, after) {
		t.Error("case body does not reach the join")
	}
}

func TestCFGSelectClauses(t *testing.T) {
	fset, g := parseFunc(t, `package p
func f(a, b chan int) {
	select {
	case v := <-a:
		use(v)
	case b <- 1:
		sent()
	default:
		idle()
	}
	after()
}
func use(int){}; func sent(){}; func idle(){}; func after(){}`)

	for _, line := range []int{5, 7, 9} {
		blk := blockAtLine(fset, g, line)
		if blk == nil {
			t.Fatalf("missing select clause block for line %d", line)
		}
		if !reaches(g.Entry, blk) {
			t.Errorf("select clause at line %d unreachable", line)
		}
		if !reaches(blk, blockAtLine(fset, g, 11)) {
			t.Errorf("select clause at line %d does not reach the join", line)
		}
	}
}

func TestCFGPanicTerminatesPath(t *testing.T) {
	fset, g := parseFunc(t, `package p
func f(c bool) {
	if c {
		panic("boom")
	}
	after()
}
func after(){}`)

	after := blockAtLine(fset, g, 6)
	pan := blockAtLine(fset, g, 4)
	if reaches(pan, after) {
		t.Error("flow continues past panic within its branch")
	}
	// The panic path must not register as a normal exit predecessor.
	for _, p := range g.Exit.Preds {
		if p == pan {
			t.Error("panicking block linked to Exit")
		}
	}
	if !reaches(g.Entry, after) {
		t.Error("non-panicking path lost")
	}
}

func TestCFGBreakContinue(t *testing.T) {
	fset, g := parseFunc(t, `package p
func f(n int) {
	for i := 0; i < n; i++ {
		if i == 1 {
			continue
		}
		if i == 2 {
			break
		}
		body()
	}
	after()
}
func body(){}; func after(){}`)

	brk := blockAtLine(fset, g, 8)
	after := blockAtLine(fset, g, 12)
	body := blockAtLine(fset, g, 10)
	if !reaches(brk, after) {
		t.Error("break does not reach loop exit")
	}
	if reaches(brk, body) {
		t.Error("break falls through into the loop body")
	}
	cont := blockAtLine(fset, g, 5)
	if !reaches(cont, body) {
		t.Error("continue cannot re-enter the loop body via the back edge")
	}
}

func TestCFGLabeledBreak(t *testing.T) {
	fset, g := parseFunc(t, `package p
func f(n int) {
outer:
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j == 1 {
				break outer
			}
			inner()
		}
	}
	after()
}
func inner(){}; func after(){}`)

	brk := blockAtLine(fset, g, 7)
	inner := blockAtLine(fset, g, 9)
	after := blockAtLine(fset, g, 12)
	if !reaches(brk, after) {
		t.Error("labeled break does not reach the outer loop's exit")
	}
	if reaches(brk, inner) {
		t.Error("labeled break re-enters the inner loop")
	}
}

func TestCFGStringAndFuncLitSkipped(t *testing.T) {
	fset, g := parseFunc(t, `package p
func f() {
	g := func() {
		inLit()
	}
	g()
}
func inLit(){}`)

	// The literal body's statements must not be scheduled in this CFG.
	if blk := blockAtLine(fset, g, 4); blk != nil {
		t.Errorf("closure body statement landed in enclosing CFG block %s", blk)
	}
	for _, b := range g.Blocks {
		if strings.Contains(b.String(), "->") {
			continue // smoke: String() renders
		}
	}
}

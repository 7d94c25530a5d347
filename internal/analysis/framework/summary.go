package framework

// summary.go computes per-function interprocedural summaries, bottom-up
// over the call graph's SCC condensation (callgraph.go). A summary answers,
// for one declared function, the questions the ftlint analyzers would
// otherwise have to assume an answer to at every call boundary:
//
//   - recovery errors: can the callee return an erasure/softfault error
//     (erasure.Code.Decode/Solve, softfault.Correct/Verify, transitively)?
//     recoverpath holds every caller to checking it.
//   - result bounds: what interval can an unsigned-integer result take?
//     modbound's interval engine uses it as its call fallback.
//
// Within an SCC the members are iterated to a local fixpoint.
//
// Everything matches by name (type names "Code"/"Corrector"), like the
// rest of the framework, so the same summaries work on the real tree and
// on import-free fixtures.

import (
	"go/ast"
	"go/types"
)

// recoverySources lists the decode/verify entry points of the fault
// recovery machinery, per receiver type name. Code.Solve is the one
// Vandermonde-minor solve: Code.Decode and the FT runtime's repair
// (ftengine.Coder.repair) both call it.
var recoverySources = map[string]map[string]bool{
	"Code":      {"Decode": true, "Solve": true},
	"Corrector": {"Correct": true, "Verify": true},
}

// Summary is one function's interprocedural summary.
type Summary struct {
	Key     string
	Name    string
	PkgPath string

	// RecoverySource: the function is one of the decode/verify entry points
	// (erasure.Code.Decode/Solve, softfault.Correct/Verify) by name.
	// RecoveryErr: the function has an error result and reaches a recovery
	// source, so its error may report an undecodable erasure.
	// ReachesRecovery: some call path reaches a recovery source.
	RecoverySource  bool
	RecoveryErr     bool
	ReachesRecovery bool

	// Returns bounds the function's single unsigned-integer result, derived
	// bottom-up over the condensation by abstractly evaluating every return
	// expression with unconstrained parameters. The full interval means "no
	// bound". Recursive functions (any member of a non-trivial SCC, or a
	// self-caller) keep the full interval: the bounded SCC iteration may
	// stop before a cyclic Returns chain converges, and an unconverged
	// bound would be a false claim. The interval engine (interval.go) uses
	// Returns as its call fallback, which is how constant-deriving helpers
	// flow through modbound without per-function axioms.
	Returns Interval
}

// Summaries is the interprocedural fact base for one analysis run.
type Summaries struct {
	byKey map[string]*Summary
	Graph *CallGraph
}

// Lookup returns the summary for a FuncKey (nil when the function is not in
// the analyzed set — stdlib, interface method, func value).
func (s *Summaries) Lookup(key string) *Summary {
	if s == nil {
		return nil
	}
	return s.byKey[key]
}

// OfFunc returns the summary for a resolved function object.
func (s *Summaries) OfFunc(fn *types.Func) *Summary {
	if fn == nil {
		return nil
	}
	return s.Lookup(FuncKey(fn))
}

// Callee resolves a call expression to its callee's summary (nil for calls
// through func values or into code outside the analyzed set).
func (s *Summaries) Callee(info *types.Info, call *ast.CallExpr) *Summary {
	return s.OfFunc(CalleeFunc(info, call))
}

// ComputeSummaries builds the call graph over pkgs and computes every
// function's summary bottom-up.
func ComputeSummaries(pkgs []*Package) *Summaries {
	g := NewCallGraph(pkgs)
	s := &Summaries{byKey: make(map[string]*Summary, len(g.Nodes)), Graph: g}
	for _, n := range g.Nodes {
		s.byKey[n.Key] = newSummary(n)
	}
	for _, scc := range g.SCCs {
		// Iterate each component to a local fixpoint: the boolean facts
		// only grow, and recursive functions keep the full Returns interval.
		for iter := 0; iter < 2*len(scc)+2; iter++ {
			changed := false
			for _, n := range scc {
				if s.compute(n) {
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
	return s
}

// newSummary seeds a summary with the facts derivable from the signature
// alone, before any body analysis.
func newSummary(n *CGNode) *Summary {
	sum := &Summary{
		Key:     n.Key,
		Name:    n.Fn.Name(),
		PkgPath: n.Pkg.Path,
		Returns: FullInterval(),
	}
	sig, _ := n.Fn.Type().(*types.Signature)
	if sig == nil {
		return sum
	}
	if recv := sig.Recv(); recv != nil {
		recvName := NamedTypeName(recv.Type())
		if set := recoverySources[recvName]; set != nil && set[sum.Name] {
			sum.RecoverySource = true
			sum.ReachesRecovery = true
		}
	}
	return sum
}

// hasErrorResult reports whether the signature's last result is an error.
func hasErrorResult(sig *types.Signature) bool {
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	return NamedTypeName(res.At(res.Len()-1).Type()) == "error"
}

// compute (re)derives n's summary from its body and the current state of
// its callees' summaries. It reports whether anything changed.
func (s *Summaries) compute(n *CGNode) bool {
	sum := s.byKey[n.Key]
	old := *sum

	sig, _ := n.Fn.Type().(*types.Signature)
	if sig == nil || n.Decl.Body == nil {
		return false
	}

	// Transitive recovery facts along call edges.
	for key := range n.Calls {
		if c := s.byKey[key]; c != nil && c.ReachesRecovery {
			sum.ReachesRecovery = true
		}
	}
	if hasErrorResult(sig) && sum.ReachesRecovery {
		sum.RecoveryErr = true
	}

	sum.Returns = s.computeReturns(n, sig)
	return sum.ReachesRecovery != old.ReachesRecovery ||
		sum.RecoveryErr != old.RecoveryErr ||
		!sum.Returns.Equal(old.Returns)
}

// computeReturns derives the Returns bound: the join of the abstract values
// of every top-level return expression, evaluated under an empty environment
// (parameters unconstrained) with callee bounds taken from the summaries
// computed so far. Only single-result functions of unsigned integer type get
// a bound; recursion keeps the full interval (see the field comment).
func (s *Summaries) computeReturns(n *CGNode, sig *types.Signature) Interval {
	if sig.Results().Len() != 1 || !isUnsignedType(sig.Results().At(0).Type()) {
		return FullInterval()
	}
	if n.Calls[n.Key] || s.Graph.SCCSize(n.Key) > 1 {
		return FullInterval() // recursion: the bounded iteration may not converge
	}
	ev := &IntervalEval{Info: n.Pkg.Info, Summaries: s}
	env := NewIntervalEnv()
	out := EmptyInterval()
	sawReturn := false
	InspectShallow(n.Decl.Body, func(m ast.Node) bool {
		ret, ok := m.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		sawReturn = true
		if len(ret.Results) != 1 {
			out = FullInterval() // naked return: named result untracked
			return true
		}
		out = out.Join(ev.Eval(ret.Results[0], env))
		return true
	})
	if !sawReturn {
		return FullInterval() // panics or infinite loop: no value to bound
	}
	return out
}

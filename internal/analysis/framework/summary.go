package framework

// summary.go computes per-function interprocedural summaries, bottom-up
// over the call graph's SCC condensation (callgraph.go). A summary answers,
// for one declared function, the questions the ftlint analyzers previously
// had to assume an answer to at every call boundary:
//
//   - ownership: what does the callee do to an Acc-typed parameter — use
//     it, release it (on every path? some?), or let it escape? accown turns
//     "release via helper" from a stand-down into a checked protocol event,
//     and "helper only uses it" from a stand-down into a live obligation
//     the caller still owes.
//   - recovery errors: can the callee return an erasure/softfault error
//     (erasure.Code.Decode/Solve, softfault.Correct/Verify, transitively)?
//     recoverpath holds every caller to checking it.
//
// Ownership effects are computed by running the existing CFG + dataflow
// protocol machinery once per tracked parameter with the boundary state
// Live (the object arrives owned by the caller); deferred releases use the
// armed states of protocol.go. Within an SCC the members are iterated to a
// local fixpoint; a parameter handed to a not-yet-analyzed mutual-recursion
// partner is conservatively treated as escaping.
//
// Everything matches by name (type names "Acc"/"Code"/"Corrector"), like
// the rest of the framework, so the same summaries work on the real tree and
// on import-free fixtures.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ParamEffect is a bitset describing a callee's effect on one tracked
// (Acc-typed) parameter.
type ParamEffect uint8

const (
	// EffTracked: the parameter has a tracked type and was analyzed.
	EffTracked ParamEffect = 1 << iota
	// EffUses: the callee operates on the object (it must arrive live).
	EffUses
	// EffReleasesAll: the callee releases the object on every path
	// (including via a deferred release).
	EffReleasesAll
	// EffReleasesMaybe: the callee releases the object on some but not all
	// paths — callers cannot prove anything and should stand down.
	EffReleasesMaybe
	// EffEscapes: the object is stored, returned, captured by a closure, or
	// passed to code without a summary; local ownership tracking ends.
	EffEscapes
)

// trackedOwnershipTypes are the type names whose values follow an
// acquire/release ownership protocol.
var trackedOwnershipTypes = map[string]bool{"Acc": true}

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

	// Params holds the ownership effect per parameter (EffTracked unset for
	// parameters of untracked types). Variadic reports a trailing ...T.
	Params   []ParamEffect
	Variadic bool

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

	node *CGNode
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

// ArgEffect classifies what a call does to a tracked object passed as
// argument argIdx.
type ArgEffect int

const (
	// ArgEscape: unknown callee or the callee lets the object escape (or
	// releases it only on some paths) — local tracking must stand down.
	ArgEscape ArgEffect = iota
	// ArgUse: the callee uses the object and hands it back still owned.
	ArgUse
	// ArgRelease: the callee releases the object on every path.
	ArgRelease
)

// ArgEffect returns the effect of passing a tracked object as argument
// argIdx of call, per the callee's summary.
func (s *Summaries) ArgEffect(info *types.Info, call *ast.CallExpr, argIdx int) ArgEffect {
	sum := s.Callee(info, call)
	if sum == nil {
		return ArgEscape
	}
	i := sum.paramIndex(call, argIdx)
	if i < 0 {
		return ArgEscape
	}
	eff := sum.Params[i]
	switch {
	case eff&EffTracked == 0 || eff&EffEscapes != 0 || eff&EffReleasesMaybe != 0:
		return ArgEscape
	case eff&EffReleasesAll != 0:
		return ArgRelease
	default:
		return ArgUse
	}
}

// paramIndex maps call argument i to the callee's parameter index, or -1
// when the mapping is not positional (variadic tail, f(g()) forwarding,
// arity mismatch).
func (sum *Summary) paramIndex(call *ast.CallExpr, i int) int {
	n := len(sum.Params)
	if sum.Variadic {
		if len(call.Args) < n-1 || i >= n-1 {
			return -1 // variadic tail: no per-position effect
		}
		return i
	}
	if len(call.Args) != n || i >= n {
		return -1
	}
	return i
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
		// Iterate each component to a local fixpoint: boolean facts only
		// grow, ownership effects stabilize because escape is terminal.
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
		node:    n,
	}
	sig, _ := n.Fn.Type().(*types.Signature)
	if sig == nil {
		return sum
	}
	sum.Variadic = sig.Variadic()
	if recv := sig.Recv(); recv != nil {
		recvName := NamedTypeName(recv.Type())
		if set := recoverySources[recvName]; set != nil && set[sum.Name] {
			sum.RecoverySource = true
			sum.ReachesRecovery = true
		}
	}
	sum.Params = make([]ParamEffect, sig.Params().Len())
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
	oldParams := append([]ParamEffect(nil), sum.Params...)

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

	s.computeOwnership(n, sum, sig)
	sum.Returns = s.computeReturns(n, sig)

	if len(sum.Params) != len(oldParams) {
		return true
	}
	for i := range sum.Params {
		if sum.Params[i] != oldParams[i] {
			return true
		}
	}
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

// paramObjects maps each tracked parameter's types.Object to its index.
func paramObjects(n *CGNode, sig *types.Signature) map[types.Object]int {
	out := map[types.Object]int{}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		p := params.At(i)
		if trackedOwnershipTypes[NamedTypeName(p.Type())] && p.Name() != "" && p.Name() != "_" {
			out[p] = i
		}
	}
	return out
}

// computeOwnership derives the per-parameter ownership effects by building
// the protocol event stream for each tracked parameter and solving its
// lifecycle over the CFG with boundary state Live.
func (s *Summaries) computeOwnership(n *CGNode, sum *Summary, sig *types.Signature) {
	tracked := paramObjects(n, sig)
	if len(tracked) == 0 {
		return
	}
	info := n.Pkg.Info
	defers := CollectDeferRanges(n.Decl.Body)
	closures := CollectBareClosures(n.Decl.Body)

	type state struct {
		events  map[token.Pos]ProtoEvent
		escaped bool
		used    bool
		// consumed records ident positions already classified through a
		// call context; any other reference to the object is an escape.
		consumed map[token.Pos]bool
	}
	st := make(map[types.Object]*state, len(tracked))
	for obj := range tracked {
		st[obj] = &state{events: map[token.Pos]ProtoEvent{}, consumed: map[token.Pos]bool{}}
	}

	place := func(ps *state, pos token.Pos, kind ProtoEventKind, name string) {
		deferredAnchor, deferred := defers.CallAt(pos)
		inClosure := closures.Contains(pos)
		switch {
		case kind == ProtoRelease && deferred:
			ps.events[deferredAnchor] = ProtoEvent{Kind: ProtoDeferRelease, Name: name}
		case deferred:
			// Deferred use: runs at exit, after every observable point.
		case inClosure:
			// The closure may run at any time (or never): ownership facts
			// for the enclosing function end here.
			ps.escaped = true
		case kind == ProtoRelease:
			ps.events[pos] = ProtoEvent{Kind: ProtoRelease, Name: name}
		default:
			ps.events[pos] = ProtoEvent{Kind: ProtoUse, Name: name}
			ps.used = true
		}
	}

	ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
		// A field of a tracked parameter read or written (x.abs) is a use:
		// the parameter itself is not stored, returned or captured.
		if sel, ok := m.(*ast.SelectorExpr); ok {
			id, ok := ast.Unparen(sel.X).(*ast.Ident)
			field := info.Selections[sel]
			if ps := st[info.Uses[id]]; ok && ps != nil && field != nil && field.Kind() == types.FieldVal {
				ps.consumed[id.Pos()] = true
				place(ps, sel.Pos(), ProtoUse, sel.Sel.Name)
			}
			return true
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := CalleeIdent(call)
		// Method call on a tracked parameter: Release releases; everything
		// else is a use.
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && callee != nil {
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil {
					if _, isTracked := tracked[obj]; isTracked {
						ps := st[obj]
						ps.consumed[id.Pos()] = true
						kind := ProtoUse
						if callee.Name == "Release" {
							kind = ProtoRelease
						}
						place(ps, call.Pos(), kind, callee.Name)
					}
				}
			}
		}
		// Tracked parameter passed on as an argument: classify through the
		// callee's summary.
		for i, arg := range call.Args {
			id, ok := ast.Unparen(arg).(*ast.Ident)
			if !ok {
				continue
			}
			obj := info.Uses[id]
			if obj == nil {
				continue
			}
			_, isTracked := tracked[obj]
			if !isTracked {
				continue
			}
			ps := st[obj]
			ps.consumed[id.Pos()] = true
			switch s.ArgEffect(info, call, i) {
			case ArgRelease:
				place(ps, call.Pos(), ProtoRelease, calleeName(callee))
			case ArgUse:
				place(ps, call.Pos(), ProtoUse, calleeName(callee))
			default:
				ps.escaped = true
			}
		}
		return true
	})

	// Any reference outside the classified call and field contexts —
	// returned, assigned, address-taken, stored in a composite — is an
	// escape.
	ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
		id, ok := m.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			return true
		}
		if ps, isTracked := st[obj]; isTracked && !ps.consumed[id.Pos()] {
			ps.escaped = true
		}
		return true
	})

	cfgOnce := (*CFG)(nil)
	for obj, idx := range tracked {
		ps := st[obj]
		eff := EffTracked
		if ps.used {
			eff |= EffUses
		}
		if ps.escaped {
			sum.Params[idx] = eff | EffEscapes
			continue
		}
		if cfgOnce == nil {
			cfgOnce = NewCFG(n.Decl.Body)
		}
		exit := solveParamExit(cfgOnce, ps.events)
		switch {
		case exit == 0:
			// No path reaches the exit (infinite loop / always panics):
			// make no release claim.
		case exit&(StateLive|StateNotYet) == 0:
			eff |= EffReleasesAll
		case exit&(StateReleased|StateReleasedArmed|StateLiveArmed) != 0:
			eff |= EffReleasesMaybe
		}
		sum.Params[idx] = eff
	}
}

func calleeName(id *ast.Ident) string {
	if id == nil {
		return "call"
	}
	return id.Name
}

// solveParamExit runs the lifecycle dataflow for one parameter arriving
// Live and returns the joined state over every path into Exit.
func solveParamExit(g *CFG, events map[token.Pos]ProtoEvent) ObjState {
	spec := FlowSpec[ObjState]{
		Bottom:   func() ObjState { return 0 },
		Boundary: func() ObjState { return StateLive },
		Join:     func(a, b ObjState) ObjState { return a | b },
		Equal:    func(a, b ObjState) bool { return a == b },
		Transfer: func(b *Block, in ObjState) ObjState {
			return walkProtocol(b, in, events, nil)
		},
	}
	res := ForwardSolve(g, spec)
	var exit ObjState
	for _, p := range g.Exit.Preds {
		exit |= res.Out[p]
	}
	return exit
}

// ClosureSpans are the spans of function literals that are not the
// immediate body of a defer statement (a `defer func(){...}()` closure is
// handled by the defer rules instead). A tracked object referenced inside
// one is captured by code that may run at any time — or never — so local
// ownership tracking must end there.
type ClosureSpans [][2]token.Pos

// Contains reports whether pos falls inside a bare (non-deferred) closure.
func (c ClosureSpans) Contains(pos token.Pos) bool {
	for _, s := range c {
		if pos >= s[0] && pos < s[1] {
			return true
		}
	}
	return false
}

// CollectBareClosures gathers the spans of every function literal under
// root except those immediately invoked by a defer statement.
func CollectBareClosures(root ast.Node) ClosureSpans {
	deferred := map[*ast.FuncLit]bool{}
	ast.Inspect(root, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			if fl, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
				deferred[fl] = true
			}
		}
		return true
	})
	var spans ClosureSpans
	ast.Inspect(root, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok && !deferred[fl] {
			spans = append(spans, [2]token.Pos{fl.Pos(), fl.End()})
		}
		return true
	})
	return spans
}

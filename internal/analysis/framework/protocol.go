package framework

// protocol.go is the shared acquire/release lifecycle checker built on the
// CFG and the dataflow solver. arenasafe (getArena/putArena, mark/release)
// and accown (NewAcc/Release) enforce the same shape of protocol: an object
// acquired at one call site must be released on every path out of the
// function, must not be used after its release, and must not be released
// twice. The checker runs one forward powerset-lattice analysis per object:
// the fact is the set of lifecycle states the object may be in at a program
// point, so "released on one branch only" shows up as {Live, Released} at
// the merge and a loop back edge carries {Released} into the next
// iteration's uses.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Lifecycle collects one tracked object's call sites within a function for
// CheckLifecycle: the acquisition, every release and use placed so far, and
// whether the object escaped local tracking.
type Lifecycle struct {
	acquirePos token.Pos // CallExpr position of the acquisition
	events     map[token.Pos]ProtoEvent
	hasRelease bool // some release exists (explicit, deferred, or via helper)
	// Escaped is set when the object is handed to unknown code (returned,
	// stored, captured by a bare closure); local tracking then ends.
	Escaped bool
}

// NewLifecycle starts tracking an object acquired by the call at pos.
func NewLifecycle(pos token.Pos, acquireName string) *Lifecycle {
	return &Lifecycle{
		acquirePos: pos,
		events:     map[token.Pos]ProtoEvent{pos: {Kind: ProtoAcquire, Name: acquireName}},
	}
}

// Place routes one release or use into the event stream, applying the defer
// and closure rules: a deferred release arms the protocol at its
// registration point, a deferred use runs after every observable point, and
// a reference inside a bare (non-deferred) closure ends tracking.
func (lc *Lifecycle) Place(defers DeferRanges, closures ClosureSpans, pos token.Pos, kind ProtoEventKind, name string) {
	anchor, deferred := defers.CallAt(pos)
	switch {
	case kind == ProtoRelease && deferred:
		lc.events[anchor] = ProtoEvent{Kind: ProtoDeferRelease, Name: name}
		lc.hasRelease = true
	case deferred:
		// Deferred use: runs at exit, nothing observable follows it.
	case closures.Contains(pos):
		lc.Escaped = true
	case kind == ProtoRelease:
		lc.events[pos] = ProtoEvent{Kind: ProtoRelease, Name: name}
		lc.hasRelease = true
	default:
		lc.events[pos] = ProtoEvent{Kind: ProtoUse, Name: name}
	}
}

// LifecycleMessages renders protocol findings for one object family. Each
// format takes the object's name as its only operand.
type LifecycleMessages struct {
	NeverReleased string
	Kinds         map[ProtoFindingKind]string // "" silences a kind
}

// CheckLifecycle reports the protocol findings of one tracked object of
// the function whose body is given: nothing if it escaped, a never-released
// finding at the acquisition if no release exists at all, and otherwise
// every CheckProtocol finding the message table renders.
func CheckLifecycle(pass *Pass, cfg *CFG, body *ast.BlockStmt, obj types.Object, lc *Lifecycle, msgs LifecycleMessages) {
	if lc.Escaped {
		return // handed off; the new owner is responsible
	}
	if !lc.hasRelease {
		pass.Reportf(lc.acquirePos, msgs.NeverReleased, obj.Name())
		return
	}
	for _, f := range CheckProtocol(cfg, lc.events, body.Rbrace) {
		if msg := msgs.Kinds[f.Kind]; msg != "" {
			pass.Reportf(f.Pos, msg, obj.Name())
		}
	}
}

// ObjState is a set of lifecycle states (a powerset lattice element; join is
// set union).
type ObjState uint8

const (
	// StateNotYet: execution has not passed the acquire site (also the state
	// after a scope ends, e.g. a per-iteration acquire before its redefinition).
	StateNotYet ObjState = 1 << iota
	// StateLive: acquired and not yet released — the object owes a release.
	StateLive
	// StateReleased: released; further uses and releases are protocol errors.
	StateReleased
	// StateLiveArmed: live with a deferred release registered. Every exit
	// from the function is covered by the pending deferred call, so an exit
	// in this state is not a leak; an explicit release in this state will be
	// released a second time by the defer at exit.
	StateLiveArmed
	// StateReleasedArmed: explicitly released while a deferred release is
	// still armed — the deferred call will double-release at function exit.
	StateReleasedArmed
)

// releasedAny matches every state in which the object has already been
// released; liveAny matches every state in which it is currently live.
const (
	releasedAny = StateReleased | StateReleasedArmed
	liveAny     = StateLive | StateLiveArmed
)

// ProtoEventKind classifies how a call site affects the tracked object.
type ProtoEventKind int

const (
	// ProtoAcquire (re)initializes the object: NewAcc(), getArena(), mark().
	ProtoAcquire ProtoEventKind = iota
	// ProtoRelease ends the obligation: Release(), putArena(), release(m).
	ProtoRelease
	// ProtoUse is any other operation that requires the object to be live.
	ProtoUse
	// ProtoDeferRelease registers a deferred release at its defer statement:
	// the release itself runs at every function exit, so paths through the
	// registration are covered, while paths around it still owe a release.
	// Keyed at the deferred CallExpr (for `defer f(x)` the deferred call
	// itself; for `defer func() { ... }()` the closure invocation).
	ProtoDeferRelease
)

// ProtoEvent is one call site affecting the tracked object, keyed by the
// CallExpr's position (see CheckProtocol).
type ProtoEvent struct {
	Kind ProtoEventKind
	Name string // call name, echoed in findings
}

// ProtoFindingKind classifies a protocol violation. "Partial" means the
// violation happens on some but not all executions reaching the point (a
// branch or loop iteration); the non-partial variants hold on every path.
type ProtoFindingKind int

const (
	// LeakReturn: a return statement executes while the object is live.
	LeakReturn ProtoFindingKind = iota
	LeakReturnPartial
	// LeakExit: control falls off the end of the function while the object
	// is (or may be) live.
	LeakExit
	LeakExitPartial
	// UseAfterRelease: a ProtoUse runs with the object already released.
	UseAfterRelease
	UseAfterReleasePartial
	// DoubleRelease: a ProtoRelease runs with the object already released.
	DoubleRelease
	DoubleReleasePartial
	// DeferDoubleRelease: the function exits (return or fall-off) with the
	// object explicitly released while a deferred release is still armed:
	// the defer will release it a second time.
	DeferDoubleRelease
	DeferDoubleReleasePartial
)

// ProtoFinding is one protocol violation for the checked object.
type ProtoFinding struct {
	Pos  token.Pos
	Kind ProtoFindingKind
	Name string // the offending call's name ("" for leak findings)
}

// CheckProtocol runs the lifecycle analysis for one object over a function
// CFG. events maps CallExpr positions to their effect on the object; only
// *ast.CallExpr nodes are consulted, so positions shared with enclosing
// expressions are unambiguous. exitPos is where fall-off-the-end leaks are
// reported (the body's closing brace). A deferred release is modeled as a
// ProtoDeferRelease event at its registration point (the armed states above)
// rather than exempting the object: a defer inside one branch covers only
// the paths that execute it. Deferred *uses* must not appear in events —
// they run at exit, after every observable program point.
func CheckProtocol(g *CFG, events map[token.Pos]ProtoEvent, exitPos token.Pos) []ProtoFinding {
	spec := FlowSpec[ObjState]{
		Bottom:   func() ObjState { return 0 },
		Boundary: func() ObjState { return StateNotYet },
		Join:     func(a, b ObjState) ObjState { return a | b },
		Equal:    func(a, b ObjState) bool { return a == b },
		Transfer: func(b *Block, in ObjState) ObjState {
			return walkProtocol(b, in, events, nil)
		},
	}
	res := ForwardSolve(g, spec)

	var findings []ProtoFinding
	report := func(f ProtoFinding) { findings = append(findings, f) }
	for _, b := range g.Blocks {
		if res.In[b] == 0 {
			continue // unreachable: nothing executes here
		}
		walkProtocol(b, res.In[b], events, report)
	}

	// Fall-off-the-end: join the out-states of Exit predecessors that do not
	// end in a return (returns were diagnosed at their own statements).
	var fallOff ObjState
	for _, p := range g.Exit.Preds {
		if p.ReturnStmt() == nil {
			fallOff |= res.Out[p]
		}
	}
	if fallOff&StateLive != 0 {
		kind := LeakExitPartial
		if fallOff == StateLive {
			kind = LeakExit
		}
		report(ProtoFinding{Pos: exitPos, Kind: kind})
	}
	if fallOff&StateReleasedArmed != 0 {
		kind := DeferDoubleReleasePartial
		if fallOff == StateReleasedArmed {
			kind = DeferDoubleRelease
		}
		report(ProtoFinding{Pos: exitPos, Kind: kind})
	}
	return findings
}

// walkProtocol applies the block's events to st in execution order; with a
// non-nil report callback it also emits findings (the post-fixpoint
// diagnosis pass reuses the exact transfer the solver ran).
func walkProtocol(b *Block, st ObjState, events map[token.Pos]ProtoEvent, report func(ProtoFinding)) ObjState {
	for _, n := range b.Nodes {
		InspectShallow(n, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			ev, ok := events[call.Pos()]
			if !ok {
				return true
			}
			switch ev.Kind {
			case ProtoAcquire:
				st = StateLive
			case ProtoRelease:
				if report != nil && st&releasedAny != 0 {
					kind := DoubleReleasePartial
					if st&^releasedAny == 0 {
						kind = DoubleRelease
					}
					report(ProtoFinding{Pos: call.Pos(), Kind: kind, Name: ev.Name})
				}
				// Per-state transition: an armed defer stays armed through
				// the explicit release — it will fire again at exit.
				var next ObjState
				if st&(StateNotYet|StateLive|StateReleased) != 0 {
					next |= StateReleased
				}
				if st&(StateLiveArmed|StateReleasedArmed) != 0 {
					next |= StateReleasedArmed
				}
				st = next
			case ProtoDeferRelease:
				var next ObjState
				if st&StateNotYet != 0 {
					next |= StateNotYet
				}
				if st&liveAny != 0 {
					next |= StateLiveArmed
				}
				if st&releasedAny != 0 {
					next |= StateReleasedArmed
				}
				st = next
			case ProtoUse:
				if report != nil && st&releasedAny != 0 {
					kind := UseAfterReleasePartial
					if st&^releasedAny == 0 {
						kind = UseAfterRelease
					}
					report(ProtoFinding{Pos: call.Pos(), Kind: kind, Name: ev.Name})
				}
			}
			return true
		})
		// The return's result expressions evaluate above; only then does the
		// statement leave the function with whatever is still live.
		if ret, ok := n.(*ast.ReturnStmt); ok && report != nil {
			if st&StateLive != 0 {
				kind := LeakReturnPartial
				if st == StateLive {
					kind = LeakReturn
				}
				report(ProtoFinding{Pos: ret.Pos(), Kind: kind})
			}
			if st&StateReleasedArmed != 0 {
				kind := DeferDoubleReleasePartial
				if st == StateReleasedArmed {
					kind = DeferDoubleRelease
				}
				report(ProtoFinding{Pos: ret.Pos(), Kind: kind})
			}
		}
	}
	return st
}

// Package chanproto checks the message-passing discipline of the machine
// simulator and its clients (internal/machine, internal/collective,
// internal/ftparallel):
//
//   - every Proc.Send must have a matching receive somewhere in the same
//     package: a Send whose tag no Recv/RecvInts/RecvDeadline call can name
//     produces a message nothing will ever consume (it sits in the per-pair
//     buffer until the run ends and the cost model silently under-charges
//     the receive side). Tags are compared by constant-folded value when
//     the type checker knows both sides (so a literal pairs with the
//     constant naming it, and two same-named constants with different
//     values do NOT pair), falling back to expression text when either
//     side is symbolic, so `tag+"/down"` still pairs with `tag+"/down"`
//     and fmt.Sprintf patterns with their textual twins;
//   - symmetrically, a receive whose tag folds to a constant no send in the
//     package can produce is an orphan receive: the process blocks on a
//     message that never arrives. The check only claims anything when every
//     send tag in the package also folds — one symbolic send tag can
//     produce any value, so the package goes conservatively silent. A
//     receive whose textual twin on the send side folds to a different
//     value is reported as a fold divergence, the sharper diagnosis;
//   - an if/else whose two branches both reach Barrier calls but on
//     different folded phase sets is a deadlock shape: processes taking
//     different sides wait on barriers the other side never enters. Only
//     claimed when both branches' phases all fold;
//   - no Proc communication may be reachable after Machine.Run has returned
//     in the same function — Run tears the machine down, so a later
//     Send/Recv can never complete. This is a forward dataflow fact over the
//     function's CFG, so a Run inside one branch taints the code after the
//     merge (the shutdown *may* have happened);
//   - the host goroutine must not perform a raw channel send that is not
//     visibly non-blocking: a bare `ch <- v` outside a select clause, on a
//     channel not created with a non-zero buffer in the same function, can
//     deadlock the simulator. Sends inside `go func(){...}` bodies run on
//     worker goroutines and are exempt.
//
// Like the other ftlint analyzers, matching is by name (methods on types
// named Proc, Endpoint and Machine), so the checks work on the real tree and
// on import-free fixtures alike. Tags cross the transport seam unchanged, so
// transport Endpoint traffic feeds the receive-side checks too.
package chanproto

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"

	"repro/internal/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name: "chanproto",
	Doc:  "check Send/Recv tag pairing by text and folded value, branch-divergent barrier phases, no Proc traffic after Machine.Run, and no blocking raw sends on the host goroutine",
	Run:  run,
}

// governed lists the package path segments whose channel traffic follows the
// simulator protocol. "machine" covers internal/machine, whose network the
// sim and wall clocks share; "transport", "simnet" and "wallnet" name the
// single-segment fixture packages that exercise the rule.
var governed = []string{"machine", "collective", "ftengine", "ftparallel", "ftmatmul", "transport", "simnet", "wallnet"}

// procComm names the methods that move messages; their tag is always the
// second argument. Barrier's phase is its first.
var procComm = map[string]bool{
	"Send":         true,
	"Recv":         true,
	"RecvInts":     true,
	"RecvDeadline": true,
}

func run(pass *framework.Pass) error {
	inScope := false
	for _, seg := range governed {
		if framework.PathHasSegment(pass.Path, seg) {
			inScope = true
			break
		}
	}
	if !inScope {
		return nil
	}

	checkTagPairing(pass)
	framework.FuncDecls(pass.Files, func(fd *ast.FuncDecl) {
		checkBarrierDivergence(pass, fd)
		checkShutdownOrder(pass, fd)
		checkHostSends(pass, fd)
	})
	return nil
}

// tagSite is one communication call's tag: its rendered text always, and
// its constant-folded value when the type checker knows one.
type tagSite struct {
	pos    token.Pos
	method string
	proc   bool // on a Proc, as opposed to a transport Endpoint
	text   string
	val    string
	folded bool
}

// commCall classifies a call as Proc or Endpoint communication and returns
// its method name and tag (or Barrier phase) site.
func commCall(pass *framework.Pass, call *ast.CallExpr) (tagSite, bool) {
	recv := framework.RecvTypeName(pass.Info, call)
	if recv != "Proc" && recv != "Endpoint" {
		return tagSite{}, false
	}
	callee := framework.CalleeIdent(call)
	if callee == nil {
		return tagSite{}, false
	}
	idx := 1
	if callee.Name == "Barrier" {
		idx = 0
	} else if !procComm[callee.Name] {
		return tagSite{}, false
	}
	if idx >= len(call.Args) {
		return tagSite{}, false
	}
	arg := call.Args[idx]
	s := tagSite{pos: call.Pos(), method: callee.Name, proc: recv == "Proc", text: types.ExprString(arg)}
	if tv, ok := pass.Info.Types[arg]; ok && tv.Value != nil {
		s.val, s.folded = tv.Value.ExactString(), true
	}
	return s, true
}

// checkTagPairing pairs the package's send and receive tags both ways.
// Every Proc.Send needs a Proc receive that can consume it: folded tags pair
// by value, and a pair where either side is symbolic falls back to text
// equality. Every folded receive (Proc or Endpoint) needs a send that can
// produce its value, claimed only when all send tags fold.
func checkTagPairing(pass *framework.Pass) {
	var sends, recvs []tagSite
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			s, ok := commCall(pass, call)
			switch {
			case !ok || s.method == "Barrier":
			case s.method == "Send":
				sends = append(sends, s)
			default:
				recvs = append(recvs, s)
			}
			return true
		})
	}

	recvVals := make(map[string]bool)
	// recvTextSym holds texts of receives the folder could not evaluate: a
	// symbolic receive can consume whatever its textual twin sends.
	recvTextSym := make(map[string]bool)
	recvTexts := make(map[string]bool)
	for _, r := range recvs {
		if !r.proc {
			continue
		}
		recvTexts[r.text] = true
		if r.folded {
			recvVals[r.val] = true
		} else {
			recvTextSym[r.text] = true
		}
	}
	sendVals := map[string]bool{}
	allSendsFolded := true
	for _, s := range sends {
		if s.folded {
			sendVals[s.val] = true
		} else {
			allSendsFolded = false
		}
		if !s.proc {
			continue
		}
		switch {
		case s.folded && recvVals[s.val]:
			continue // value-paired
		case recvTextSym[s.text]:
			continue // symbolic receive, textual twin
		case !s.folded && recvTexts[s.text]:
			continue // symbolic send, textual twin
		}
		pass.Reportf(s.pos, "Proc.Send with tag %s has no matching Recv in package %s: the message can never be consumed", s.text, pass.Path)
	}

	for _, r := range recvs {
		if !r.folded || sendVals[r.val] {
			continue // symbolic, or value-paired with some send
		}
		// Fold divergence: a textual twin on the send side with a different
		// constant value is the sharper diagnosis.
		diverged := false
		for _, s := range sends {
			if s.folded && s.text == r.text && s.val != r.val {
				pass.Reportf(r.pos, "Proc.%s tag %s folds to %s here but the identically-written send tag folds to %s: text pairing matches, the values never will", r.method, r.text, r.val, s.val)
				diverged = true
				break
			}
		}
		if !diverged && len(sends) > 0 && allSendsFolded {
			pass.Reportf(r.pos, "Proc.%s waits for tag %s but no Send in package %s can produce it: the receive blocks until teardown", r.method, r.val, pass.Path)
		}
	}
}

// phaseSet collects the folded Barrier phases shallowly reachable in a
// branch. allFolded is false if any reachable phase is symbolic.
func phaseSet(pass *framework.Pass, branch ast.Node) (map[string]bool, bool) {
	phases := map[string]bool{}
	allFolded := true
	framework.InspectShallow(branch, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		s, ok := commCall(pass, call)
		if !ok || s.method != "Barrier" {
			return true
		}
		if s.folded {
			phases[s.val] = true
		} else {
			allFolded = false
		}
		return true
	})
	return phases, allFolded
}

// checkBarrierDivergence flags if/else statements whose branches barrier on
// different folded phase sets.
func checkBarrierDivergence(pass *framework.Pass, fd *ast.FuncDecl) {
	framework.InspectShallow(fd.Body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok || ifs.Else == nil {
			return true
		}
		thenPhases, thenFolded := phaseSet(pass, ifs.Body)
		elsePhases, elseFolded := phaseSet(pass, ifs.Else)
		if !thenFolded || !elseFolded || len(thenPhases) == 0 || len(elsePhases) == 0 {
			return true
		}
		if !maps.Equal(thenPhases, elsePhases) {
			pass.Reportf(ifs.Pos(), "if/else branches synchronize on different barrier phases (%s vs %s): processes taking different sides deadlock", setString(thenPhases), setString(elsePhases))
		}
		return true
	})
}

// setString renders a phase set in sorted order, for deterministic
// diagnostics and golden files.
func setString(s map[string]bool) string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return "{" + strings.Join(keys, ", ") + "}"
}

// checkShutdownOrder flags Proc communication reachable after a call to
// Machine.Run has returned in the same function body. FuncLit bodies (the
// worker closures handed *to* Run) are excluded by the shallow walks.
func checkShutdownOrder(pass *framework.Pass, fd *ast.FuncDecl) {
	callsRun := false
	framework.InspectShallow(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if framework.RecvTypeName(pass.Info, call) == "Machine" {
				if callee := framework.CalleeIdent(call); callee != nil && callee.Name == "Run" {
					callsRun = true
				}
			}
		}
		return true
	})
	if !callsRun {
		return
	}

	cfg := framework.NewCFG(fd.Body)
	// walk applies the block's calls in order to the "machine shut down"
	// fact; when report is true it flags Proc traffic seen while the fact
	// holds. Checking precedes updating, so `m.Run(...)` itself is clean.
	walk := func(b *framework.Block, in bool, report bool) bool {
		down := in
		for _, node := range b.Nodes {
			framework.InspectShallow(node, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := framework.CalleeIdent(call)
				if callee == nil {
					return true
				}
				switch framework.RecvTypeName(pass.Info, call) {
				case "Proc":
					if down && report && (procComm[callee.Name] || callee.Name == "Barrier") {
						pass.Reportf(call.Pos(), "Proc.%s reachable after Machine.Run has returned: the machine is shut down and the call can never complete", callee.Name)
					}
				case "Machine":
					if callee.Name == "Run" {
						down = true
					}
				}
				return true
			})
		}
		return down
	}

	res := framework.ForwardSolve(cfg, framework.FlowSpec[bool]{
		Bottom:   func() bool { return false },
		Boundary: func() bool { return false },
		Join:     func(a, b bool) bool { return a || b },
		Equal:    func(a, b bool) bool { return a == b },
		Transfer: func(b *framework.Block, in bool) bool { return walk(b, in, false) },
	})
	for _, b := range cfg.Blocks {
		if b == cfg.Entry || len(b.Preds) > 0 {
			walk(b, res.In[b], true)
		}
	}
}

// checkHostSends flags raw channel sends on the host goroutine that are not
// visibly non-blocking. Sends inside function literals are exempt: a
// literal's execution context (worker goroutine, Run closure, deferred
// callback) is not the host's, and the shallow walks below never enter one.
func checkHostSends(pass *framework.Pass, fd *ast.FuncDecl) {
	// Channels made with a non-zero (or non-constant) buffer in this
	// function are considered safe to send on.
	buffered := make(map[types.Object]bool)
	// Sends that are select comm clauses never block the select.
	inSelect := make(map[*ast.SendStmt]bool)

	framework.InspectShallow(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i := range n.Lhs {
				id, ok := n.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				call, ok := ast.Unparen(n.Rhs[i]).(*ast.CallExpr)
				if !ok {
					continue
				}
				if callee, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || callee.Name != "make" {
					continue
				}
				if len(call.Args) != 2 {
					continue // make(chan T): definitely unbuffered
				}
				if _, isChan := call.Args[0].(*ast.ChanType); !isChan {
					continue
				}
				if lit, ok := ast.Unparen(call.Args[1]).(*ast.BasicLit); ok && lit.Value == "0" {
					continue
				}
				if obj := pass.Info.Defs[id]; obj != nil {
					buffered[obj] = true
				}
			}
		case *ast.SelectStmt:
			for _, clause := range n.Body.List {
				cc, ok := clause.(*ast.CommClause)
				if !ok {
					continue
				}
				if send, ok := cc.Comm.(*ast.SendStmt); ok {
					inSelect[send] = true
				}
			}
		}
		return true
	})

	framework.InspectShallow(fd.Body, func(n ast.Node) bool {
		send, ok := n.(*ast.SendStmt)
		if !ok || inSelect[send] {
			return true
		}
		if id, ok := ast.Unparen(send.Chan).(*ast.Ident); ok {
			if buffered[pass.Info.Uses[id]] {
				return true
			}
		}
		pass.Reportf(send.Pos(), "unbuffered channel send from the host goroutine can block the simulator: use a select with default, a buffered channel, or send from a worker goroutine")
		return true
	})
}

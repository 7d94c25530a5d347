package costbound

// worlds.go drives the evaluator: symbolic derivation of a collective's
// closed form from its declaration, and the send-log fixpoint that derives
// exact per-rank counts for a finite multiplication world.

import (
	"fmt"
	"go/token"
	"go/types"

	"repro/internal/analysis/framework"
)

// maxFixpointPasses bounds the send-log iteration; each pipeline phase that
// feeds message shapes forward needs one pass, so the certified worlds
// converge in single digits.
const maxFixpointPasses = 64

// nodeForDecl finds the call-graph node backing a declaration.
func nodeForDecl(sums *framework.Summaries, obj *types.Func) *framework.CGNode {
	if obj == nil {
		return nil
	}
	return sums.Graph.Nodes[framework.FuncKey(obj)]
}

// collectiveArgs builds symbolic entry arguments for a collective whose
// parameters follow the Broadcast/Reduce shape: an endpoint, a group, any
// number of int/string scalars, and one payload vector. Returns false if a
// parameter falls outside that shape.
func collectiveArgs(sig *types.Signature) ([]Value, bool) {
	args := make([]Value, 0, sig.Params().Len())
	payloads := 0
	for i := 0; i < sig.Params().Len(); i++ {
		t := sig.Params().At(i).Type()
		switch {
		case framework.NamedTypeName(t) == "Proc":
			args = append(args, proc{rank: -1})
		case framework.NamedTypeName(t) == "Group":
			args = append(args, group{framework.SymVar("g")})
		case framework.IsLimbVector(t) || framework.NamedTypeName(t) == "Ints":
			args = append(args, vec{framework.SymInt(framework.SymVar("W"))})
			payloads++
		default:
			b, ok := t.Underlying().(*types.Basic)
			if !ok {
				return nil, false
			}
			switch {
			case b.Info()&types.IsInteger != 0:
				args = append(args, framework.KnownInt(0))
			case b.Info()&types.IsString != 0:
				args = append(args, framework.KnownStr("t"))
			default:
				return nil, false
			}
		}
	}
	return args, payloads == 1
}

// evalErr converts an evaluation abort into an error carrying its
// position; a partial load set stays a framework.Missing.
func evalErr(fset *token.FileSet, r any) error {
	switch e := r.(type) {
	case *framework.EvalError:
		if fset != nil && e.Pos.IsValid() {
			return fmt.Errorf("%s: costbound: %s", fset.Position(e.Pos), e.Msg)
		}
		return e
	case framework.Missing:
		return e
	}
	panic(r)
}

// deriveCollective interprets one collective declaration symbolically and
// returns the derived cost polynomial over g (group size) and W (payload
// words).
func deriveCollective(sums *framework.Summaries, fset *token.FileSet, node *framework.CGNode) (cv costVec, err error) {
	sig, _ := node.Fn.Type().(*types.Signature)
	if sig == nil {
		return costVec{}, fmt.Errorf("no signature for %s", node.Key)
	}
	args, ok := collectiveArgs(sig)
	if !ok {
		return costVec{}, fmt.Errorf("parameters of %s fall outside the collective shape", node.Key)
	}
	d := &deriver{symbolic: true, spmdW: framework.SymVar("W")}
	defer func() {
		if r := recover(); r != nil {
			err = evalErr(fset, r)
		}
	}()
	framework.NewEval(sums, d, hostFuel).CallNode(node, nil, args, nil)
	return d.cost, nil
}

// deriveWorld interprets a Multiply entry over one finite world and returns
// the per-counter maxima over all simulated ranks. Each pass interprets the
// entry on the host up to Machine.Run, then the captured SPMD program once
// per rank; message sizes cross rank boundaries through a send log: each
// Send records its payload words under (src→dst, tag) and each Recv
// pops the matching entry of the previous pass, until the log reaches a
// fixpoint (one pass per pipeline phase that feeds shapes forward).
func deriveWorld(sums *framework.Summaries, fset *token.FileSet, entry *framework.CGNode, w World) (Counts, error) {
	prev := map[string][]int64{}
	var lastFail error
	for pass := 0; pass < maxFixpointPasses; pass++ {
		d := &deriver{prevLog: prev, curLog: map[string][]int64{}, recvCur: map[string]int{}}
		ev := framework.NewEval(sums, d, hostFuel)
		alg := &framework.Struct{Type: "Algorithm", Fields: map[string]Value{"k": framework.KnownInt(int64(w.K))}}
		args, err := ev.MultiplyArgs(entry, w.MultiplyWorld, alg)
		if err != nil {
			return Counts{}, err
		}
		p, prog, err := ev.CaptureRun(entry, args)
		if err != nil {
			if e, ok := err.(*framework.EvalError); ok {
				err = evalErr(fset, e)
			}
			return Counts{}, err
		}
		d.machineP = p
		// Every rank runs even after one fails: its sends feed the log.
		costs := make([]costVec, p)
		lastFail = nil
		for r := int64(0); r < p; r++ {
			d.rank, d.cost, d.joinDepth = r, costVec{}, 0
			*ev.Fuel = rankFuel
			err := func() (err error) {
				defer func() {
					if rec := recover(); rec != nil {
						ev.Reset()
						err = evalErr(fset, rec)
					}
				}()
				ev.CallValue(prog, []Value{proc{rank: r}}, nil, entry.Decl.Pos())
				costs[r] = d.cost
				return nil
			}()
			if _, incomplete := err.(framework.Missing); incomplete {
				return Counts{}, err
			}
			if err != nil && lastFail == nil {
				lastFail = fmt.Errorf("rank %d: %v", r, err)
			}
		}
		if lastFail == nil && !d.logMiss && logsEqual(prev, d.curLog) {
			out := Counts{}
			for r, cv := range costs {
				cf, cs, cr, cl, err := cv.eval(nil)
				if err != nil {
					return Counts{}, fmt.Errorf("world %s: rank %d cost not concrete: %v", w.Name, r, err)
				}
				out = maxCounts(out, Counts{cf, cs, cr, cl})
			}
			return out, nil
		}
		prev = d.curLog
	}
	if lastFail != nil {
		return Counts{}, fmt.Errorf("world %s: no fixpoint after %d passes; %v", w.Name, maxFixpointPasses, lastFail)
	}
	return Counts{}, fmt.Errorf("world %s: send log did not converge after %d passes", w.Name, maxFixpointPasses)
}

func logsEqual(a, b map[string][]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if av[i] != bv[i] {
				return false
			}
		}
	}
	return true
}

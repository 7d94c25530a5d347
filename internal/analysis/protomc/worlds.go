package protomc

// worlds.go instantiates concrete model worlds. Two families exist:
//
//   - generic collective worlds: every package-level function whose first
//     parameter is a *Proc and that transitively communicates is
//     instantiated for n in [2,5] processors, with every legal root when a
//     root parameter exists. Groups become the identity group [0..n),
//     payload vectors become small opaque vectors, tags become "t".
//
//   - engine worlds: the fault-tolerant worlds of the shared
//     multiplication world list (framework.MultiplyWorlds), built by
//     interpreting the real ftparallel.Multiply entry on the host up to its
//     Machine.Run; the SPMD program handed to Run is the world's
//     per-processor body, so the instantiated engine is exactly what the
//     production constructor builds.
//
// Fault plans are not chosen here: the checker's first (fault-free) run
// records every (proc, phase, hit) barrier crossing, and the analyzer
// re-explores the world once per crossing with that single fail-stop
// injected — exactly the space a machine.Fault plan can express for one
// fault, which is what a layout with F=1 must tolerate.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis/framework"
	"repro/internal/toom"
)

// worldNs are the processor counts generic collective worlds run at.
var worldNs = []int{2, 3, 4, 5}

// shortKey trims the import-path directory from a FuncKey:
// "repro/internal/collective.Broadcast" -> "collective.Broadcast".
func shortKey(key string) string {
	return key[strings.LastIndex(key, "/")+1:]
}

// instError reports a function the analyzer wanted to world-ify but could
// not — surfaced as a diagnostic, never silently skipped (vacuity guard).
type instError struct {
	key string
	pos token.Pos
	msg string
}

// collectiveWorlds builds the generic worlds for every communicating
// package-level Proc-first function declared in the pass's package, in
// source order. Functions with unmodelable call trees are the analyzer's
// job to report; they are not returned here.
func collectiveWorlds(pass *framework.Pass, sums *framework.Summaries, skels *framework.SkeletonSet) ([]*world, []instError) {
	var worlds []*world
	var errs []instError
	framework.FuncDecls(pass.Files, func(fd *ast.FuncDecl) {
		if fd.Recv != nil {
			return
		}
		fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
		if fn == nil {
			return
		}
		sig, _ := fn.Type().(*types.Signature)
		if sig == nil || sig.Params().Len() == 0 {
			return
		}
		if framework.NamedTypeName(sig.Params().At(0).Type()) != "Proc" {
			return
		}
		key := framework.FuncKey(fn)
		if !skels.CommReach(key) {
			return
		}
		if ok, bl := skels.Modelable(key); !ok {
			errs = append(errs, instError{key: key, pos: fd.Pos(),
				msg: "cannot model communication skeleton: " + skels.DescribeBlockers(pass.Fset, bl)})
			return
		}
		node := sums.Graph.Nodes[key]
		if node == nil {
			return
		}
		ws, ie := funcWorlds(node, sig)
		worlds = append(worlds, ws...)
		if ie != nil {
			errs = append(errs, *ie)
		}
	})
	return worlds, errs
}

// funcWorlds instantiates one Proc-first function over every world size and
// every legal root.
func funcWorlds(node *framework.CGNode, sig *types.Signature) ([]*world, *instError) {
	key := node.Key
	pos := node.Decl.Pos()

	// Probe instantiability once (n=2, root=0): a parameter with no world
	// value is a finding, not a silent skip.
	if _, err := worldArgs(sig, 2, 0); err != nil {
		return nil, &instError{key: key, pos: pos, msg: err.Error()}
	}
	hasRoot := false
	params := sig.Params()
	for i := 1; i < params.Len(); i++ {
		if isRootParam(params.At(i)) {
			hasRoot = true
		}
	}

	var worlds []*world
	for _, n := range worldNs {
		roots := []int{0}
		if hasRoot {
			roots = roots[:0]
			for r := 0; r < n; r++ {
				roots = append(roots, r)
			}
		}
		for _, root := range roots {
			n, root := n, root
			name := fmt.Sprintf("%s n=%d", shortKey(key), n)
			if hasRoot {
				name = fmt.Sprintf("%s root=%d", name, root)
			}
			worlds = append(worlds, &world{
				name:          name,
				n:             n,
				pos:           pos,
				faultTolerant: true,
				run: func(ev *framework.Eval, mp *modelProc) Value {
					args, err := worldArgs(sig, n, root)
					if err != nil {
						ev.Fail(pos, "%s", err.Error())
					}
					return lastResult(ev.CallNode(node, nil, append([]Value{ProcVal{mp: mp}}, args...), nil))
				},
			})
		}
	}
	return worlds, nil
}

func isRootParam(p *types.Var) bool {
	b, ok := p.Type().Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0 &&
		strings.Contains(strings.ToLower(p.Name()), "root")
}

// worldArgs builds the arguments after the leading *Proc, fresh per
// processor (each rank owns its locals, exactly as on the machine).
func worldArgs(sig *types.Signature, n, root int) ([]Value, error) {
	params := sig.Params()
	out := make([]Value, 0, params.Len()-1)
	for i := 1; i < params.Len(); i++ {
		v, err := worldArg(params.At(i), n, root)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// worldArg picks the concrete world value for one parameter. The rules
// mirror how the production wrappers call the collectives: identity groups,
// parameter-named roots, small payload vectors, and one vector per
// destination for the multi-collectives (contribs may round-robin past n,
// so it gets n+1).
func worldArg(p *types.Var, n, root int) (Value, error) {
	name := strings.ToLower(p.Name())
	t := p.Type()
	switch u := t.Underlying().(type) {
	case *types.Basic:
		info := u.Info()
		switch {
		case info&types.IsInteger != 0:
			if strings.Contains(name, "root") {
				return framework.KnownInt(int64(root)), nil
			}
			if strings.Contains(name, "weight") {
				return framework.KnownInt(2), nil
			}
			return framework.KnownInt(1), nil
		case info&types.IsString != 0:
			return framework.KnownStr("t"), nil
		case info&types.IsFloat != 0:
			return framework.Float{Known: true, V: 5}, nil
		case info&types.IsBoolean != 0:
			return framework.KnownBool(false), nil
		}
	case *types.Slice:
		if framework.NamedTypeName(t) == "Group" {
			return groupValue(n), nil
		}
		if _, deep := u.Elem().Underlying().(*types.Slice); deep {
			count := n
			if name == "contribs" {
				count = n + 1
			}
			vecs := make([]Value, count)
			for i := range vecs {
				vecs[i] = payloadVec(2)
			}
			return framework.NewSlice(vecs), nil
		}
		return payloadVec(2), nil
	}
	return nil, fmt.Errorf("parameter %s %v has no world instantiation", p.Name(), t)
}

// groupValue is the identity group [0..n).
func groupValue(n int) *framework.Slice {
	elems := make([]Value, n)
	for i := range elems {
		elems[i] = framework.KnownInt(int64(i))
	}
	return framework.NewSlice(elems)
}

// payloadVec is a vector of opaque payload scalars.
func payloadVec(n int) *framework.Slice {
	elems := make([]Value, n)
	for i := range elems {
		elems[i] = Opaque{}
	}
	return framework.NewSlice(elems)
}

// lastResult is a body's trailing (error) result, nil for none.
func lastResult(out []Value) Value {
	if len(out) == 0 {
		return framework.Nil{}
	}
	return out[len(out)-1]
}

// engineWorlds instantiates the package's Multiply entry for every
// fault-tolerant world of the shared list: the host run builds the real
// engine (layout, plan, coder, workload) and stops at Machine.Run, whose
// program becomes the per-processor body. The engine state is shared by
// all ranks and runs: the scheduler executes one processor at a time, and
// the real engine is likewise shared read-only across goroutines.
func engineWorlds(pass *framework.Pass, sums *framework.Summaries, skels *framework.SkeletonSet) ([]*world, []instError) {
	ws := framework.MultiplyWorldsFor(pass.Path)
	entry := framework.MultiplyEntry(sums, pass.Pkg)
	if len(ws) == 0 || entry == nil {
		return nil, nil
	}
	if ok, bl := skels.Modelable(entry.Key); !ok {
		return nil, []instError{{key: entry.Key, pos: entry.Decl.Pos(),
			msg: "cannot model communication skeleton: " + skels.DescribeBlockers(pass.Fset, bl)}}
	}
	var worlds []*world
	var errs []instError
	for _, w := range ws {
		var fuel int64 = defaultFuel
		host := newEval(sums, skels, &fuel)
		alg, err := toom.New(w.K)
		if err != nil {
			return nil, []instError{{key: entry.Key, pos: entry.Decl.Pos(), msg: err.Error()}}
		}
		args, err := host.MultiplyArgs(entry, w, Native{V: alg})
		var n int64
		var prog Value
		if err == nil {
			n, prog, err = host.CaptureRun(entry, args)
		}
		if err != nil {
			errs = append(errs, instError{key: entry.Key, pos: entry.Decl.Pos(), msg: err.Error()})
			continue
		}
		name := fmt.Sprintf("%s P=%d k=%d F=%d ldfs=%d", shortKey(entry.Key), w.P, w.K, w.Faults, w.DFSSteps)
		if w.Straggler {
			name += " straggler"
		}
		pos := entry.Decl.Pos()
		worlds = append(worlds, &world{
			name: name,
			n:    int(n),
			pos:  pos,
			// The straggler protocol aborts collectively when too few columns
			// answer on time — a legitimate exit, not a finding.
			faultTolerant: !w.Straggler,
			run: func(ev *framework.Eval, mp *modelProc) Value {
				return lastResult(ev.CallValue(prog, []Value{ProcVal{mp: mp}}, nil, pos))
			},
		})
	}
	return worlds, errs
}

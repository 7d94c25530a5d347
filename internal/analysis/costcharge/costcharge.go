// Package costcharge keeps the paper's Table 1/2 accounting honest: an
// exported function in the algorithm packages (internal/toom,
// internal/parallel, internal/ftparallel) that performs limb arithmetic must
// have a channel to the F/BW/L cost model, so that enabling accounting can
// never silently miss work. A function satisfies the invariant when it
// either
//
//   - charges directly — calls (*toom.Stats).chargeWords or a
//     (*machine.Proc) costing method such as Work/Send/Recv — or
//   - delegates to a cost-aware callee: any call whose target function has a
//     receiver or parameter of type Stats, Proc, or Machine (passing a nil
//     *Stats is the documented caller opt-out; the channel still exists).
//
// Since PR 4 the delegation arm is verified, not assumed: when the callee
// has an interprocedural summary (framework/summary.go), it only counts as
// a witness if some path through it actually reaches a chargeWords/Proc
// charge, transitively. A helper that accepts a *Stats and ignores it —
// the charge-via-helper hole the signature heuristic could not see — no
// longer silences the analyzer. Callees without a summary (outside the
// loaded set) still count by signature.
//
// "Limb arithmetic" means calling a mutating/combining method on bigint.Int
// or bigint.Acc (Add, Sub, Mul, MulInt64, Shl, Shr, DivExactInt64,
// QuoRemWord, RemWord, AddMul, DivExact, the dot-product step AddProd, the
// Acc-to-Acc AddMulAcc, AddShl, SetMul, SetSum, SetDiff, and the counted
// Toom-2 kernel SetToom2Mul). Cheap structural
// accessors (Sign, Abs, Neg, IsZero, BitLen, WordLen, Extract, Cmp, the Acc
// loads SetInt, SetBits and the copy-out AppendValue) are deliberately
// excluded — the model charges word-touching arithmetic, not bookkeeping.
//
// Primitives whose cost is charged by their callers (toom.ApplyRows via the
// recursion's rowsWork, toom.Recompose via its recomposition charge) and
// host-side code outside the machine model carry explicit
// `//ftlint:allow costcharge <rationale>` comments.
package costcharge

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name: "costcharge",
	Doc:  "exported algorithm functions doing limb arithmetic must charge (or be able to charge) the F/BW/L cost model",
	Run:  run,
}

// governed lists the package path segments under the cost-accounting rule.
var governed = []string{"toom", "parallel", "ftengine", "ftparallel", "ftmatmul"}

// arithMethods lists the limb-arithmetic methods per receiver type name.
var arithMethods = map[string]map[string]bool{
	"Int": {
		"Add": true, "Sub": true, "Mul": true, "MulInt64": true,
		"Shl": true, "Shr": true, "DivExactInt64": true, "QuoRemWord": true,
		"RemWord": true,
	},
	"Acc": {
		"Add": true, "Sub": true, "AddMul": true, "AddProd": true,
		"Shl": true, "DivExact": true,
		"AddMulAcc": true, "AddShl": true, "SetMul": true,
		"SetSum": true, "SetDiff": true, "SetToom2Mul": true,
	},
}

// witnessTypes are the cost-model carrier types: a call into a function that
// receives one of these can charge (or forward) costs. Endpoint is a
// transport-seam carrier with Proc's charging verbs, as in the fixtures.
var witnessTypes = map[string]bool{"Stats": true, "Proc": true, "Machine": true, "Endpoint": true}

func run(pass *framework.Pass) error {
	target := false
	for _, seg := range governed {
		if framework.PathHasSegment(pass.Path, seg) {
			target = true
			break
		}
	}
	if !target {
		return nil
	}
	framework.FuncDecls(pass.Files, func(fd *ast.FuncDecl) {
		if !fd.Name.IsExported() {
			return
		}
		if isWorkloadHostHook(pass, fd) {
			return
		}
		checkFunc(pass, fd)
	})
	return nil
}

// isWorkloadHostHook exempts the ftengine.Workload read-out hooks: Decode and
// Recombine run host-side after machine.Run collects every rank, and the
// theorems do not charge result reassembly to the processors (the same rule
// the parallel tier's host-side assembly documents). The exemption is proved,
// not pattern-matched: the receiver type must implement the engine's Workload
// interface. Shard and Step stay fully governed — Step holds the *Proc.
func isWorkloadHostHook(pass *framework.Pass, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || (fd.Name.Name != "Decode" && fd.Name.Name != "Recombine") {
		return false
	}
	fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	for _, imp := range pass.Pkg.Imports() {
		if !framework.PathHasSegment(imp.Path(), "ftengine") {
			continue
		}
		obj := imp.Scope().Lookup("Workload")
		if obj == nil {
			continue
		}
		iface, ok := obj.Type().Underlying().(*types.Interface)
		if !ok {
			continue
		}
		if types.Implements(sig.Recv().Type(), iface) {
			return true
		}
	}
	return false
}

func checkFunc(pass *framework.Pass, fd *ast.FuncDecl) {
	arith := 0
	witness := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if recv := framework.RecvTypeName(pass.Info, call); recv != "" {
			if set := arithMethods[recv]; set != nil {
				if callee := framework.CalleeIdent(call); callee != nil && set[callee.Name] {
					arith++
				}
			}
		}
		if isWitness(pass, call) {
			witness = true
		}
		return true
	})
	if arith > 0 && !witness {
		pass.Reportf(fd.Name.Pos(), "exported function %s performs limb arithmetic (%d call(s)) but has no channel to the F/BW/L cost model: thread a *Stats/*Proc or delegate to a cost-aware callee (//ftlint:allow costcharge to exempt)",
			fd.Name.Name, arith)
	}
}

// isWitness reports whether the call can charge the cost model: its target
// function touches a Stats/Proc/Machine as receiver or parameter, and —
// when the callee's summary is available — some path through it provably
// reaches a charge.
func isWitness(pass *framework.Pass, call *ast.CallExpr) bool {
	fn := framework.CalleeFunc(pass.Info, call)
	if fn == nil {
		return false
	}
	if !carriesWitnessType(fn) {
		return false
	}
	if sum := pass.Summaries.OfFunc(fn); sum != nil {
		// Verified delegation: the carrier must actually be chargeable.
		return sum.Charges
	}
	return true
}

// carriesWitnessType is the pre-summary signature heuristic.
func carriesWitnessType(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	if recv := sig.Recv(); recv != nil && witnessTypes[framework.NamedTypeName(recv.Type())] {
		return true
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if witnessTypes[framework.NamedTypeName(params.At(i).Type())] {
			return true
		}
	}
	return false
}

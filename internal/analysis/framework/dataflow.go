package framework

// dataflow.go is the generic iterative fixpoint engine over the CFG of
// cfg.go. A FlowSpec describes one monotone forward dataflow problem: a join
// semilattice of facts (Bottom, Join, Equal) and a block transfer function.
// ForwardSolve propagates facts along edges from Entry, iterating a worklist
// until nothing changes, which terminates for any finite lattice with a
// monotone transfer (the interval engine widens to get there).
//
// Unreachable blocks keep the Bottom fact, so analyzers can (and should)
// skip reporting in blocks whose input fact is Bottom — dead code has no
// executions to diagnose.

// FlowSpec describes one dataflow problem over facts of type F.
type FlowSpec[F any] struct {
	// Bottom is the identity of Join: the fact of an unreached block.
	Bottom func() F
	// Boundary is the fact entering the graph at Entry.
	Boundary func() F
	// Join combines facts along merging paths (must be commutative,
	// associative, idempotent, with Bottom as identity).
	Join func(a, b F) F
	// Equal detects the fixpoint.
	Equal func(a, b F) bool
	// Transfer computes the fact after executing block b given the fact
	// before it. It must be pure — report findings in a separate pass.
	Transfer func(b *Block, in F) F
	// EdgeTransfer, when non-nil, filters the fact flowing along the
	// from→to edge before it joins into to's input. An analysis that
	// understands branch conditions uses from.Branch/TrueSucc/FalseSucc to
	// refine the fact per edge (the interval engine's conditional-subtract
	// refinement). Must be pure and monotone in f.
	EdgeTransfer func(from, to *Block, f F) F
}

// FlowResult holds the per-block fixpoint facts: In is the fact at block
// entry and Out = Transfer(b, In) the fact at block exit.
type FlowResult[F any] struct {
	In  map[*Block]F
	Out map[*Block]F
}

// ForwardSolve computes the forward fixpoint of spec over g.
func ForwardSolve[F any](g *CFG, spec FlowSpec[F]) *FlowResult[F] {
	res := &FlowResult[F]{In: make(map[*Block]F, len(g.Blocks)), Out: make(map[*Block]F, len(g.Blocks))}
	for _, b := range g.Blocks {
		res.In[b] = spec.Bottom()
		res.Out[b] = spec.Bottom()
	}

	queued := make([]bool, len(g.Blocks))
	var work []*Block
	push := func(b *Block) {
		if !queued[b.Index] {
			queued[b.Index] = true
			work = append(work, b)
		}
	}
	for _, b := range g.Blocks {
		push(b)
	}

	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b.Index] = false

		in := spec.Bottom()
		if b == g.Entry {
			in = spec.Boundary()
		}
		for _, p := range b.Preds {
			f := res.Out[p]
			if spec.EdgeTransfer != nil {
				f = spec.EdgeTransfer(p, b, f)
			}
			in = spec.Join(in, f)
		}
		out := spec.Transfer(b, in)
		if spec.Equal(in, res.In[b]) && spec.Equal(out, res.Out[b]) {
			continue
		}
		res.In[b] = in
		res.Out[b] = out
		for _, s := range b.Succs {
			push(s)
		}
	}
	return res
}

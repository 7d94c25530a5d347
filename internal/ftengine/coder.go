package ftengine

import (
	"fmt"
	"sort"

	"repro/internal/bigint"
	"repro/internal/collective"
	"repro/internal/erasure"
	"repro/internal/machine"
)

// Ctx is the per-processor durable context: the data the linear code
// protects. On a fault the victim's copy is conceptually lost; the Coder's
// recovery protocols restore it (and charge the restoration).
type Ctx struct {
	// Data is the rank's coded shard (workers; nil on code processors).
	Data []bigint.Int
	// Code is the encoded column vector (linear-code processors only).
	Code []bigint.Int
}

// Coder runs the Section 4.1 linear-erasure protocols over a Layout's grid:
// one encode (Vandermonde-weighted column reduces onto the code processors,
// run for the input shards, for the child products of every coded BFS step,
// and to re-encode dead code processors) and one repair (residual reduces
// and a small exact solve that restore lost shards). It is payload-agnostic —
// shards are flat []bigint.Int vectors, whatever the Workload packed into
// them. A nil erasure code (f = 0) degrades every operation to a no-op while
// Protect still crosses the evaluation barrier, preserving the fault-free
// phase structure.
type Coder struct {
	lay  Layout
	code *erasure.Code
	// dataLen is the flat length of every worker's input shard; prodLen the
	// flat length of the per-rank product share the mid-step re-encoding
	// protects. Code processors use them to size their zero contributions.
	dataLen, prodLen int
}

// NewCoder builds a Coder for the layout. code may be nil when f = 0.
func NewCoder(lay Layout, code *erasure.Code, dataLen, prodLen int) *Coder {
	return &Coder{lay: lay, code: code, dataLen: dataLen, prodLen: prodLen}
}

// Protect runs the engine's stage 0 on one rank: encode the input shards
// onto the code processors (the paper's code creation), cross the
// evaluation barrier, and repair any data the barrier's fault events
// destroyed. The barrier is crossed even with a nil code so the phase
// structure (and fault injection points) do not depend on f.
func (c *Coder) Protect(p *machine.Proc, rk *Rank) error {
	codeword, err := c.encode(p, rk.Ctx.Data, c.dataLen, everyCell,
		func(i, j int) string { return fmt.Sprintf("code1/%d/%d", i, j) })
	if err != nil {
		return err
	}
	rk.Ctx.Code = codeword

	// Faults during the evaluation stage lose input data; the linear code
	// rebuilds it with reduces — no recomputation (Section 4.1).
	ev, err := p.Barrier(PhaseEval)
	if err != nil {
		return err
	}
	rk.EvalEvents = ev
	if err := c.RecoverData(p, ev, rk.Ctx); err != nil {
		return err
	}
	rk.Recovered += len(ev)
	return nil
}

func everyCell(i, j int) bool { return true }

// RecoverData repairs the input shards the fault events destroyed, writing
// each victim's restored shard back into ctx, then re-encodes the code cells
// whose processors died: the victims' shards are whole again by then, so
// the full column re-runs code creation for those cells.
func (c *Coder) RecoverData(p *machine.Proc, ev []machine.FaultEvent, ctx *Ctx) error {
	if len(ev) == 0 || c.code == nil {
		return nil
	}
	data, deadCode, err := c.repair(p, ev, nil, ctx.Data, ctx.Code, c.dataLen,
		func(i, j int) string { return fmt.Sprintf("rec1/%d/%d", i, j) },
		func(j int) string { return fmt.Sprintf("rec1/share/%d", j) })
	if err != nil {
		return err
	}
	ctx.Data = data
	codeword, err := c.encode(p, ctx.Data, c.dataLen,
		func(i, j int) bool { return deadCode[[2]int{i, j}] },
		func(i, j int) string { return fmt.Sprintf("reenc1/%d/%d", i, j) })
	if err != nil {
		return err
	}
	if codeword != nil {
		ctx.Code = codeword
	}
	return nil
}

// CreateProductCode re-creates the linear code over the mid-step product
// shares of the live worker columns ("Each BFS step initiates a new code
// creation process"), protecting the recombination stage. It returns the
// code processor's product codeword (nil elsewhere).
func (c *Coder) CreateProductCode(p *machine.Proc, deadCols map[int]bool, prod []bigint.Int, tag string) ([]bigint.Int, error) {
	return c.encode(p, prod, c.prodLen,
		func(_, j int) bool { return !deadCols[j] },
		func(i, j int) string { return fmt.Sprintf("%s/code2/%d/%d", tag, i, j) })
}

// RecoverProducts repairs the product shares lost after CreateProductCode
// in live worker columns, from the product codeword prodCode. It returns
// this rank's share, restored on a victim.
func (c *Coder) RecoverProducts(p *machine.Proc, ev []machine.FaultEvent, deadCols map[int]bool, prod, prodCode []bigint.Int, tag string) ([]bigint.Int, error) {
	if len(ev) == 0 || c.code == nil {
		return prod, nil
	}
	prod, _, err := c.repair(p, ev, deadCols, prod, prodCode, c.prodLen,
		func(i, j int) string { return fmt.Sprintf("%s/rec2/%d/%d", tag, i, j) },
		func(j int) string { return fmt.Sprintf("%s/rec2/share/%d", tag, j) })
	return prod, err
}

func zeroVec(n int) machine.Ints {
	v := make(machine.Ints, n)
	for i := range v {
		v[i] = bigint.Zero()
	}
	return v
}

// columnReduce reduces Σ_r η_i^r·vec_r over the given worker rows of column
// j (ascending) onto root, which contributes zeros of length zeroLen; the
// sum is returned on root.
func (c *Coder) columnReduce(p *machine.Proc, i, j int, rows []int, root int, tag string, vec []bigint.Int, zeroLen int) (machine.Ints, error) {
	group := make(collective.Group, 0, len(rows)+1)
	for _, r := range rows {
		group = append(group, c.lay.Worker(r, j))
	}
	group = append(group, root)
	mine, weight := machine.Ints(vec), int64(0)
	if p.ID() == root {
		mine = zeroVec(zeroLen)
	} else {
		weight = c.code.RedundancyRow(i)[p.ID()%c.lay.GPrime]
	}
	return collective.WeightedReduce(p, group, len(group)-1, tag, mine, weight)
}

// encode runs code creation (Section 4.1) over the code cells (code row i,
// column j) that admit accepts, row by row: column j's workers reduce their
// vec, weighted by code row i, onto the code processor LinearCode(i, j),
// which contributes zeros of length zeroLen. It returns the codeword of the
// cell this rank roots, nil on every other rank.
func (c *Coder) encode(p *machine.Proc, vec []bigint.Int, zeroLen int, admit func(i, j int) bool, tag func(i, j int) string) ([]bigint.Int, error) {
	if c.code == nil {
		return nil, nil
	}
	lay := c.lay
	rank := p.ID()
	var rows []int
	var myCode []bigint.Int
	for i := 0; i < lay.F; i++ {
		for j := 0; j < lay.Cols(); j++ {
			root := lay.LinearCode(i, j)
			isWorker := rank < lay.P && rank/lay.GPrime == j
			if (!isWorker && rank != root) || !admit(i, j) {
				continue
			}
			if rows == nil {
				rows = seq(lay.GPrime)
			}
			got, err := c.columnReduce(p, i, j, rows, root, tag(i, j), vec, zeroLen)
			if err != nil {
				return nil, err
			}
			if rank == root {
				myCode = []bigint.Int(got)
			}
		}
	}
	return myCode, nil
}

// repair rebuilds the shards of vec that the fault events destroyed in the
// worker columns outside skip (Section 4.1, "Fault recovery"). In each such
// column the lowest dead worker leads: for as many live code rows i as the
// column lost shards, it reduces Σ_{alive r} η_i^r·vec_r from the survivors
// and subtracts it from code row i's codeword (cw on the code processor),
// solves the Vandermonde minor for the lost shards (erasure.Code.Solve,
// charged as its word work), and sends each victim its own. It returns this rank's vec, restored on a victim, and the dead
// code cells (code row, column).
func (c *Coder) repair(p *machine.Proc, ev []machine.FaultEvent, skip map[int]bool, vec, cw []bigint.Int, zeroLen int, tag func(i, j int) string, shareTag func(j int) string) ([]bigint.Int, map[[2]int]bool, error) {
	lay := c.lay
	rank := p.ID()

	// Partition victims: workers by column; linear-code casualties.
	victimRows := map[int][]int{} // column -> dead worker rows
	deadCode := map[[2]int]bool{} // (code row, column)
	for _, f := range ev {
		switch {
		case f.Proc < lay.P:
			col := f.Proc / lay.GPrime
			if !skip[col] {
				victimRows[col] = append(victimRows[col], f.Proc%lay.GPrime)
			}
		case f.Proc < lay.P+lay.F*lay.Cols():
			idx := f.Proc - lay.P
			deadCode[[2]int{idx / lay.Cols(), idx % lay.Cols()}] = true
		}
	}
	cols := make([]int, 0, len(victimRows))
	for col := range victimRows {
		sort.Ints(victimRows[col])
		cols = append(cols, col)
	}
	sort.Ints(cols)

	for _, j := range cols {
		dead := victimRows[j]
		alive := complement(lay.GPrime, dead)
		var codeRows []int
		for i := 0; i < lay.F && len(codeRows) < len(dead); i++ {
			if !deadCode[[2]int{i, j}] {
				codeRows = append(codeRows, i)
			}
		}
		if len(codeRows) < len(dead) {
			lost := &ToleranceError{F: lay.F}
			for _, r := range dead {
				lost.Dead = append(lost.Dead, lay.Worker(r, j))
			}
			return nil, nil, fmt.Errorf("ftengine: column %d lost %d shards with only %d live code rows: %w", j, len(dead), len(codeRows), lost)
		}
		leader := lay.Worker(dead[0], j)
		amLeader := rank == leader
		inColumn := rank < lay.P && rank/lay.GPrime == j

		// Residual reduces: Σ_{alive r} η_i^r·x_r to the leader, plus the
		// codeword from the code processor; leader computes residuals.
		var residuals [][]bigint.Int
		for idx, i := range codeRows {
			rtag := tag(i, j)
			if amLeader || (inColumn && containsInt(alive, rank%lay.GPrime)) {
				got, err := c.columnReduce(p, i, j, alive, leader, rtag, vec, zeroLen)
				if err != nil {
					return nil, nil, err
				}
				if amLeader {
					residuals = append(residuals, got)
				}
			}
			codeProc := lay.LinearCode(i, j)
			if rank == codeProc {
				if err := p.Send(leader, rtag+"/cw", machine.Ints(cw)); err != nil {
					return nil, nil, err
				}
			}
			if amLeader {
				got, err := p.Recv(codeProc, rtag+"/cw")
				if err != nil {
					return nil, nil, err
				}
				for t := range residuals[idx] {
					residuals[idx][t] = got[t].Sub(residuals[idx][t])
				}
				p.Work(int64(len(got)))
			}
		}

		// Leader solves the Vandermonde minor and distributes the shards.
		if amLeader {
			shares, work, err := c.code.Solve(codeRows, dead, residuals)
			if err != nil {
				return nil, nil, err
			}
			p.Work(work)
			for vi, r := range dead {
				target := lay.Worker(r, j)
				if target == leader {
					vec = shares[vi]
					continue
				}
				if err := p.Send(target, shareTag(j), machine.Ints(shares[vi])); err != nil {
					return nil, nil, err
				}
			}
		} else if inColumn && containsInt(dead, rank%lay.GPrime) {
			got, err := p.Recv(leader, shareTag(j))
			if err != nil {
				return nil, nil, err
			}
			vec = []bigint.Int(got)
		}
	}
	return vec, deadCode, nil
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func complement(n int, exclude []int) []int {
	ex := map[int]bool{}
	for _, v := range exclude {
		ex[v] = true
	}
	out := make([]int, 0, n-len(exclude))
	for i := 0; i < n; i++ {
		if !ex[i] {
			out = append(out, i)
		}
	}
	return out
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

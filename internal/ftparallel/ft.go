package ftparallel

import (
	"fmt"

	"repro/internal/bigint"
	"repro/internal/collective"
	"repro/internal/erasure"
	"repro/internal/ftengine"
	"repro/internal/machine"
	"repro/internal/parallel"
	"repro/internal/points"
	"repro/internal/toom"
)

// Options configures a fault-tolerant parallel multiplication.
type Options struct {
	// Alg is the Toom-Cook-k bilinear form.
	Alg *toom.Algorithm
	// P is the worker count; must be a power of 2k-1. Code processors are
	// added on top (Layout.ExtraProcessors).
	P int
	// F is the number of faults to tolerate.
	F int
	// DFSSteps is the sequential prefix (limited-memory case, Lemma 3.1).
	DFSSteps int
	// Machine configures α/β/γ and memory; Machine.P is overridden.
	Machine machine.Config
	// Faults is the injection plan. Valid phases: PhaseEval (input data
	// lost, recovered by the linear code), PhaseMul (product lost, column
	// halted under the polynomial code), PhaseInterp (product data lost,
	// recovered by the re-created linear code). With DFS steps, hit h of
	// PhaseMul/PhaseInterp addresses the h-th sub-problem barrier.
	Faults []machine.Fault

	// StragglerSlack > 0 switches the engine into delay-fault mitigation
	// mode (the paper's third fault category): the redundant
	// evaluation-point columns absorb *slow* processors instead of dead
	// ones. Each grid row elects its first column as decider; after its own
	// sub-problem the decider waits StragglerSlack virtual time units for
	// the other columns' completion reports and interpolates from the first
	// 2k-1 on-time columns. No barriers, no hard-fault injection, no linear
	// coding in this mode — combine Machine.SpeedFactors with it.
	StragglerSlack float64
}

// Result reports a fault-tolerant run.
type Result struct {
	Product bigint.Int
	Report  *machine.Report
	Layout  Layout
	// DeadColumns lists extended-grid columns halted by multiplication-
	// phase faults (across all DFS sub-problems).
	DeadColumns []int
	// Recovered counts data-loss events repaired by the linear code.
	Recovered int
}

// engine is the Toom-Cook instantiation of ftengine.Workload: the per-run
// immutable state shared by all processors.
type engine struct {
	lay    Layout
	plan   *parallel.Plan
	alg    *toom.Algorithm
	pts    []points.Point // 2k-1+f extended evaluation points
	uExt   [][]int64      // (2k-1+f)×k extended evaluation matrix
	ldfs   int
	digits int
	slack  float64 // > 0 selects straggler mode

	// wScaledFor caches scaled interpolation matrices per surviving set.
	wCache map[string]wScaled
	// denLCM is the least common multiple of the interpolation denominators
	// over every possible surviving point set. Each top-level fold scales
	// its output to this common denominator, so results from different DFS
	// sub-problems (which may lose different columns) stay compatible; the
	// final assembly divides it out once. Per-entry division is *not*
	// exact in the redundant digit representation — only the recomposed
	// value is divisible — which is why normalization must be deferred.
	denLCM int64
}

type wScaled struct {
	rows [][]int64
	den  int64
}

// Multiply runs the paper's fault-tolerant parallel Toom-Cook (mixed linear
// + polynomial coding, Theorem 5.2) on the generic FT engine.
func Multiply(a, b bigint.Int, opts Options) (*Result, error) {
	if opts.Alg == nil {
		return nil, fmt.Errorf("ftparallel: Options.Alg is required")
	}
	k := opts.Alg.K()
	lay, err := NewLayout(opts.P, k, opts.F)
	if err != nil {
		return nil, err
	}
	pts := points.StandardWithRedundancy(k, opts.F)
	if err := points.Valid(pts, 2*k-1); err != nil {
		return nil, fmt.Errorf("ftparallel: redundant point set invalid: %w", err)
	}
	uM := points.EvalMatrix(pts, k)
	uExt, err := toom.IntRows(uM)
	if err != nil {
		return nil, fmt.Errorf("ftparallel: extended evaluation matrix: %w", err)
	}
	plan, err := parallel.NewPlan(a, b, parallel.Options{
		Alg:      opts.Alg,
		P:        opts.P,
		DFSSteps: opts.DFSSteps,
	})
	if err != nil {
		return nil, err
	}
	if opts.StragglerSlack > 0 && len(opts.Faults) > 0 {
		return nil, fmt.Errorf("ftparallel: straggler mode does not combine with hard-fault injection")
	}
	e := &engine{
		lay:    lay,
		plan:   plan,
		alg:    opts.Alg,
		pts:    pts,
		uExt:   uExt,
		ldfs:   opts.DFSSteps,
		digits: parallel.Pow(k, plan.Levels()) * opts.P,
		slack:  opts.StragglerSlack,
		wCache: map[string]wScaled{},
	}
	if err := e.computeDenLCM(); err != nil {
		return nil, err
	}
	// Straggler mode runs without the coded prologue: no Coder.
	var coder *ftengine.Coder
	if e.slack <= 0 {
		var code *erasure.Code
		if opts.F > 0 {
			code, err = erasure.New(lay.GPrime, opts.F)
			if err != nil {
				return nil, err
			}
		}
		coder = ftengine.NewCoder(lay, code, e.inputVecLen(), e.productShareLen())
	}
	res, err := ftengine.Run(e, ftengine.RunOptions{
		Layout:  lay,
		Coder:   coder,
		Machine: opts.Machine,
		Faults:  opts.Faults,
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		Product:     res.Output[0],
		Report:      res.Report,
		Layout:      lay,
		DeadColumns: res.Dead,
		Recovered:   res.Recovered,
	}, nil
}

// inputVecLen is the length of the concatenated per-worker input vector.
func (e *engine) inputVecLen() int { return 2 * e.digits / e.lay.P }

// productShareLen is the per-processor child-product share length at the
// coded BFS step.
func (e *engine) productShareLen() int {
	k := e.alg.K()
	lenTotal := e.digits / parallel.Pow(k, e.ldfs)
	return 2 * lenTotal / (k * e.lay.GPrime)
}

// Shard packs a worker's top-level input shares into the flat coded vector
// the engine's linear code protects (Section 4.1, "Code creation"). Code
// processors hold no input.
func (e *engine) Shard(rank int) []bigint.Int {
	if rank >= e.lay.P {
		return nil
	}
	a, b := e.plan.InputShares(rank)
	return parallel.Concat(a, b)
}

// Step is the SPMD compute body: the coded BFS/DFS traversal over the
// recursion tree, entered after the engine's coded prologue restored any
// evaluation-phase victims.
func (e *engine) Step(p *machine.Proc, rk *ftengine.Rank) (ftengine.Slots, error) {
	var myA, myB []bigint.Int
	if p.ID() < e.lay.P {
		half := len(rk.Ctx.Data) / 2
		myA, myB = rk.Ctx.Data[:half], rk.Ctx.Data[half:]
	}
	return e.node(p, 0, nil, myA, myB, rk)
}

// Decode passes the gathered slots through: multiplication-phase faults are
// routed around inside the step (halted columns contribute no shares), so
// the gathered slots are already decodable.
func (e *engine) Decode(dead []int, slots map[int][]bigint.Int) (map[int][]bigint.Int, error) {
	return slots, nil
}

// node handles one recursion level of the fault-tolerant schedule: DFS
// levels iterate the 2k-1 sub-problems sequentially (each independently
// protected), and the level at depth ldfs is the coded BFS step.
func (e *engine) node(p *machine.Proc, level int, dfsPath []int, myA, myB []bigint.Int, rk *ftengine.Rank) (ftengine.Slots, error) {
	if level < e.ldfs {
		return e.dfsLevel(p, level, dfsPath, myA, myB, rk)
	}
	return e.bfsStep(p, dfsPath, myA, myB, rk)
}

// dfsLevel runs the 2k-1 sub-problems sequentially on all processors.
// Evaluation is local for workers; the interpolation accumulates into
// per-slot shares. The linear code processors' codewords commute with the
// (linear) evaluation, so the column code remains decodable at every depth.
func (e *engine) dfsLevel(p *machine.Proc, level int, dfsPath []int, myA, myB []bigint.Int, rk *ftengine.Rank) (ftengine.Slots, error) {
	k := e.alg.K()
	lenTotal := e.digits / parallel.Pow(k, level)
	acc := ftengine.Slots{}
	for j := 0; j < 2*k-1; j++ {
		var evalA, evalB []bigint.Int
		if p.ID() < e.lay.P {
			evalA = parallel.EvalRowBlocks(p, e.alg.U()[j], myA, k)
			evalB = parallel.EvalRowBlocks(p, e.alg.U()[j], myB, k)
		}
		child, err := e.node(p, level+1, append(dfsPath, j), evalA, evalB, rk)
		if err != nil {
			return nil, err
		}
		// Accumulate W^T column j into the per-slot coefficient shares.
		for slot, share := range child {
			out, ok := acc[slot]
			if !ok {
				out = make([]bigint.Int, 2*lenTotal/e.lay.P)
				acc[slot] = out
			}
			e.plan.AddColumn(p, j, share, out, lenTotal, e.lay.P)
		}
	}
	return acc, nil
}

// bfsStep is the coded parallel step: extended evaluation over 2k-1+f
// points, plain column subtrees, code re-creation, and interpolation from
// the surviving columns.
func (e *engine) bfsStep(p *machine.Proc, dfsPath []int, myA, myB []bigint.Int, rk *ftengine.Rank) (ftengine.Slots, error) {
	lay := e.lay
	k := e.alg.K()
	cols := lay.Cols()
	numCols := lay.NumColumns()
	gP := lay.GPrime
	rank := p.ID()
	lenTotal := e.digits / parallel.Pow(k, e.ldfs)
	tag := pathTag(dfsPath)

	myCol, inGrid := lay.ColumnOf(rank)
	myRow, _ := lay.RowOf(rank)
	isWorker := rank < lay.P

	// Extended evaluation and within-row redistribution: workers compute
	// slices for all 2k-1+f points; column j's slice goes to the row-mate
	// in extended column j (code columns included — Figure 2).
	var childA, childB []bigint.Int
	var selfSlice []bigint.Int
	if isWorker {
		for j := 0; j < numCols; j++ {
			sa := parallel.EvalRowBlocks(p, e.uExt[j], myA, k)
			sb := parallel.EvalRowBlocks(p, e.uExt[j], myB, k)
			payload := parallel.Concat(sa, sb)
			dst := lay.ColumnRank(myRow, j)
			if dst == rank {
				selfSlice = payload
				continue
			}
			if err := p.Send(dst, tag+"/down", machine.Ints(payload)); err != nil {
				return nil, err
			}
		}
	}
	if inGrid {
		per := lenTotal / (k * lay.P) // entries per received slice, per operand
		childA = make([]bigint.Int, per*cols)
		childB = make([]bigint.Int, per*cols)
		for c := 0; c < cols; c++ {
			src := lay.Worker(myRow, c)
			var got machine.Ints
			if src == rank {
				got = machine.Ints(selfSlice)
			} else {
				var err error
				got, err = p.Recv(src, tag+"/down")
				if err != nil {
					return nil, err
				}
			}
			if len(got) != 2*per {
				return nil, fmt.Errorf("ftparallel: slice length %d, want %d", len(got), 2*per)
			}
			for t := 0; t < per; t++ {
				childA[c+t*cols] = got[t]
				childB[c+t*cols] = got[per+t]
			}
		}
	}

	// Faults during the multiplication stage: the polynomial code absorbs
	// them — the affected column is halted (Section 4.2, "Fault recovery":
	// "we halt the execution of the remaining processors of its column").
	deadCols := map[int]bool{}
	if e.slack <= 0 {
		ev, err := p.Barrier(PhaseMul)
		if err != nil {
			return nil, err
		}
		for _, f := range ev {
			if c, ok := lay.ColumnOf(f.Proc); ok {
				deadCols[c] = true
				rk.DeadSeen[c] = true
			}
		}
		if numCols-len(deadCols) < cols {
			return nil, fmt.Errorf("ftparallel: %d columns lost: %w", len(deadCols), ftengine.Exceeded(lay.F, ev))
		}
		// Victims also lost their top-level inputs; restore them (linear
		// code) so later DFS sub-problems can proceed.
		if err := rk.Coder.RecoverData(p, ev, rk.Ctx); err != nil {
			return nil, err
		}
		rk.Recovered += len(ev)
		if isWorker && len(dfsPath) > 0 {
			// A restored worker replays its (local, linear) evaluation
			// chain from the recovered inputs. The replay is deterministic,
			// so the result is bit-identical to the lost state; what this
			// step needs from it is the charged recomputation cost — the
			// shares themselves are not read again in this BFS step (the
			// interpolation below consumes only the child products).
			for _, fe := range ev {
				if fe.Proc == rank {
					e.replayEvalPath(p, dfsPath)
				}
			}
		}
	}
	var err error

	// Column subtrees: every live grid column solves its sub-problem with
	// the plain parallel engine (standard Parallel Toom-Cook from here on,
	// Section 4.2).
	myColAlive := inGrid && !deadCols[myCol]
	var childProd []bigint.Int
	if myColAlive {
		colGroup := make(collective.Group, gP)
		for r := 0; r < gP; r++ {
			colGroup[r] = lay.ColumnRank(r, myCol)
		}
		childProd, err = e.plan.Node(p, colGroup, childA, childB, e.ldfs+1, fmt.Sprintf("ft%s.%d", tag, myCol))
		if err != nil {
			return nil, err
		}
	}

	var surv []int
	if e.slack > 0 {
		// Delay-fault mitigation: each row's decider interpolates from the
		// first 2k-1 columns whose completion reports arrive within the
		// slack; slower columns are simply not waited for — the redundant
		// evaluation points stand in for them exactly as they do for dead
		// columns.
		var late []int
		dec := ftengine.Straggler{Lay: e.lay, Slack: e.slack}
		surv, late, err = dec.DecideOnTime(p, myRow, inGrid, tag)
		if err != nil {
			return nil, err
		}
		if inGrid {
			chosenSet := map[int]bool{}
			for _, c := range surv {
				chosenSet[c] = true
			}
			for c := 0; c < numCols; c++ {
				if !chosenSet[c] {
					deadCols[c] = true
				}
			}
			// Only columns that actually missed the deadline are reported
			// as dropped; an unused on-time redundant column is not a
			// straggler.
			for _, c := range late {
				rk.DeadSeen[c] = true
			}
		}
	} else {
		// Code re-creation (Section 4.1: "Each BFS step initiates a new
		// code creation process"): live worker columns encode their child
		// products onto the code rows, protecting the interpolation stage.
		prodCode, err := rk.Coder.CreateProductCode(p, deadCols, childProd, tag)
		if err != nil {
			return nil, err
		}

		// Faults during the interpolation stage: rebuild lost product data
		// from the fresh code; an undecodable erasure aborts the multiply.
		ev2, err := p.Barrier(PhaseInterp)
		if err != nil {
			return nil, err
		}
		childProd, err = rk.Coder.RecoverProducts(p, ev2, deadCols, childProd, prodCode, tag)
		if err != nil {
			return nil, err
		}
		rk.Recovered += len(ev2)
		// Interpolation-phase faults on polynomial-code columns are not
		// covered by the worker-column code; treat those columns as dead.
		for _, f := range ev2 {
			if c, ok := lay.ColumnOf(f.Proc); ok && c >= cols {
				deadCols[c] = true
				rk.DeadSeen[c] = true
			}
		}
		if numCols-len(deadCols) < cols {
			return nil, fmt.Errorf("ftparallel: columns lost at interpolation: %w", ftengine.Exceeded(lay.F, ev2))
		}
		// Restore victims' inputs for subsequent DFS sub-problems.
		if err := rk.Coder.RecoverData(p, ev2, rk.Ctx); err != nil {
			return nil, err
		}

		// Surviving-column selection and on-the-fly interpolation matrix
		// (Section 4.2, Correctness: "the interpolation matrix is
		// calculated on the fly according to the evaluation points of the
		// finished sub-problems").
		surv = survivors(numCols, deadCols, cols)
	}
	if !inGrid {
		// Linear-code processors hold no product share.
		return ftengine.Slots{}, nil
	}
	w, err := e.interpFor(surv)
	if err != nil {
		return nil, err
	}

	// Upward redistribution among the surviving (virtual) grid and local
	// fold, mirroring the plain engine.
	myVirtual := -1
	for v, c := range surv {
		if c == myCol && myColAlive {
			myVirtual = v
		}
	}
	if myVirtual < 0 {
		// Halted columns, unused live columns and code rows hold no share.
		return ftengine.Slots{}, nil
	}
	per := len(childProd) / cols // entries per class
	var selfUp []bigint.Int
	for v := 0; v < cols; v++ {
		slice := make([]bigint.Int, 0, per)
		for u := v; u < len(childProd); u += cols {
			slice = append(slice, childProd[u])
		}
		dst := lay.ColumnRank(myRow, surv[v])
		if dst == rank {
			selfUp = slice
			continue
		}
		if err := p.Send(dst, tag+"/up", machine.Ints(slice)); err != nil {
			return nil, err
		}
	}
	slices := make([][]bigint.Int, cols)
	for j := 0; j < cols; j++ {
		src := lay.ColumnRank(myRow, surv[j])
		if src == rank {
			slices[j] = selfUp
			continue
		}
		got, err := p.Recv(src, tag+"/up")
		if err != nil {
			return nil, err
		}
		slices[j] = got
	}
	out := e.plan.Fold(p, w.rows, e.denLCM/w.den, slices, lenTotal, lay.P)
	slot := myRow + myVirtual*gP
	return ftengine.Slots{slot: out}, nil
}

// computeDenLCM enumerates every (2k-1)-subset of the extended point set and
// takes the lcm of the interpolation denominators.
func (e *engine) computeDenLCM() error {
	k := e.alg.K()
	need := 2*k - 1
	l := int64(1)
	var rec func(start int, chosen []int) error
	rec = func(start int, chosen []int) error {
		if len(chosen) == need {
			w, err := e.interpFor(append([]int(nil), chosen...))
			if err != nil {
				return err
			}
			l = lcm64(l, w.den)
			if l <= 0 {
				return fmt.Errorf("ftparallel: interpolation denominator lcm overflows int64")
			}
			return nil
		}
		for c := start; c <= len(e.pts)-(need-len(chosen)); c++ {
			if err := rec(c+1, append(chosen, c)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0, nil); err != nil {
		return err
	}
	e.denLCM = l
	return nil
}

func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm64(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	return a / gcd64(a, b) * b
}

// interpFor returns the scaled interpolation matrix for a surviving column
// set (cached; identical on every processor).
func (e *engine) interpFor(surv []int) (wScaled, error) {
	key := fmt.Sprint(surv)
	if w, ok := e.wCache[key]; ok {
		return w, nil
	}
	pts := make([]points.Point, len(surv))
	for i, c := range surv {
		pts[i] = e.pts[c]
	}
	wt, err := points.Interpolation(pts, 2*e.alg.K()-1)
	if err != nil {
		return wScaled{}, err
	}
	rows, den, err := toom.ScaledRows(wt)
	if err != nil {
		return wScaled{}, err
	}
	w := wScaled{rows: rows, den: den}
	e.wCache[key] = w
	return w, nil
}

// survivors picks the first `need` live extended columns.
func survivors(numCols int, dead map[int]bool, need int) []int {
	out := make([]int, 0, need)
	for c := 0; c < numCols && len(out) < need; c++ {
		if !dead[c] {
			out = append(out, c)
		}
	}
	return out
}

// pathTag names a DFS path for message tags.
func pathTag(path []int) string {
	s := "t"
	for _, j := range path {
		s += fmt.Sprintf(".%d", j)
	}
	return s
}

// replayEvalPath recomputes a restored worker's evaluation chain from its
// (recovered) top-level input shares — purely local linear work.
func (e *engine) replayEvalPath(p *machine.Proc, path []int) ([]bigint.Int, []bigint.Int) {
	a, b := e.plan.InputShares(p.ID())
	k := e.alg.K()
	for _, j := range path {
		a = parallel.EvalRowBlocks(p, e.alg.U()[j], a, k)
		b = parallel.EvalRowBlocks(p, e.alg.U()[j], b, k)
	}
	return a, b
}

// Recombine assembles the decoded slot shares into the product (unmetered
// read-out): slot q holds virtual worker q's share, and the top BFS fold
// carries the common denominator denLCM.
func (e *engine) Recombine(perSlot map[int][]bigint.Int) ([]bigint.Int, error) {
	z, err := e.plan.AssembleFrom(e.denLCM, func(q int) ([]bigint.Int, error) { return perSlot[q], nil })
	if err != nil {
		return nil, err
	}
	return []bigint.Int{z}, nil
}

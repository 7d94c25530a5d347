// Package parallel implements the Parallel Toom-Cook-k algorithm of
// Section 3 of the paper on the simulated machine of internal/machine,
// generalizing De Stefani's parallel Karatsuba via the BFS-DFS
// parallelization technique.
//
// # Structure
//
// The recursion tree of Toom-Cook-k is traversed with l_DFS sequential (DFS)
// steps followed by log_{2k-1}(P) parallel (BFS) steps (Ballard et al. show
// DFS-first is optimal; Lemma 3.1 gives the required l_DFS for a memory
// budget). At a BFS step the current group of g processors is arranged as a
// (g/(2k-1)) × (2k-1) grid; the 2k-1 sub-problems are assigned to the grid
// columns, and all communication happens within rows, exactly as in the
// paper's data-partitioning scheme. A DFS step solves the 2k-1 sub-problems
// sequentially on the whole group with no communication at all.
//
// # Data representation
//
// Inputs are pre-split (lazy-interpolation style, Algorithm 2) into
// D = k^{l_total}·R digits of a shared base 2^shift, with R a multiple of P.
// Every sub-problem — operand or product — is a *digit vector* distributed
// cyclically over its group: entry s lives on group member s mod g. The
// divisibility R ≡ 0 (mod P) makes every evaluation purely local, every BFS
// redistribution a within-row exchange, and — crucially — the interpolation
// ascent local too: a coefficient entry c̄_i[s] folds into product digit
// position s + i·(len/k), and len/k ≡ 0 (mod g) keeps the fold on the same
// processor.
//
// Product vectors are "redundant" digit vectors: entries are signed values a
// few bits wider than the digit base (carry resolution is postponed to the
// final unmetered assembly, following the Lazy Interpolation technique), and
// interpolation divisions are deferred — vectors accumulate a factor wDen
// per level that the assembly divides out exactly. This keeps all metered
// data within a constant factor of its true information content, so F/BW/L
// follow the paper's Theorem 5.1 shapes.
package parallel

import (
	"fmt"
	"strconv"

	"repro/internal/bigint"
	"repro/internal/collective"
	"repro/internal/machine"
	"repro/internal/toom"
)

// Options configures one parallel multiplication.
type Options struct {
	// Alg is the Toom-Cook-k bilinear form to parallelize.
	Alg *toom.Algorithm
	// P is the processor count; it must be a power of 2k-1.
	P int
	// DFSSteps is l_DFS, the number of sequential steps performed before
	// the BFS steps (0 in the unlimited-memory case). Use DFSStepsFor to
	// derive it from a memory budget per Lemma 3.1.
	DFSSteps int
	// Machine configures the simulated machine (α, β, γ, memory budget).
	// Machine.P is overridden by P.
	Machine machine.Config
	// TrackMemory stores each recursion node's live data in the simulated
	// processors' local stores, enabling peak-memory measurement and the M
	// capacity check of Lemma 3.1.
	TrackMemory bool
}

// Result is the outcome of a parallel multiplication.
type Result struct {
	// Product is the verified product, assembled by an unmetered gather
	// after the algorithm finished (the algorithm's own final state leaves
	// the product distributed, as in the paper).
	Product bigint.Int
	// Report carries the F/BW/L/time accounting of the metered run.
	Report *machine.Report
	// Shift is the digit width in bits; Digits the total digit count.
	Shift, Digits int
	// Levels is l_total = DFSSteps + log_{2k-1}(P).
	Levels int
}

// Multiply runs Parallel Toom-Cook-k on a simulated machine and returns the
// product and the cost report.
func Multiply(a, b bigint.Int, opts Options) (*Result, error) {
	pl, err := NewPlan(a, b, opts)
	if err != nil {
		return nil, err
	}
	cfg := opts.Machine
	cfg.P = opts.P
	m, err := machine.New(cfg, nil)
	if err != nil {
		return nil, err
	}
	return pl.Execute(m)
}

// Plan holds everything an SPMD run needs, precomputed on the host: digit
// shares per processor and the level schedule. Fault-tolerant wrappers embed
// it and drive Program on machines with extra (code) processors.
type Plan struct {
	alg    *toom.Algorithm
	k      int
	p      int
	lbfs   int
	ldfs   int
	levels int
	digits int
	shift  int
	neg    bool
	track  bool

	sharesA, sharesB [][]bigint.Int
}

// NewPlan validates options and pre-distributes the inputs (the paper's
// starting state: input distributed on all processors; unmetered).
func NewPlan(a, b bigint.Int, opts Options) (*Plan, error) {
	if opts.Alg == nil {
		return nil, fmt.Errorf("parallel: Options.Alg is required")
	}
	k := opts.Alg.K()
	lbfs := logBase(opts.P, 2*k-1)
	if lbfs < 0 {
		return nil, fmt.Errorf("parallel: P = %d is not a power of 2k-1 = %d", opts.P, 2*k-1)
	}
	if opts.DFSSteps < 0 {
		return nil, fmt.Errorf("parallel: negative DFSSteps")
	}
	levels := opts.DFSSteps + lbfs
	digits := Pow(k, levels) * opts.P
	neg := a.Sign()*b.Sign() < 0
	a, b = a.Abs(), b.Abs()
	maxBits := a.BitLen()
	if b.BitLen() > maxBits {
		maxBits = b.BitLen()
	}
	if maxBits == 0 {
		maxBits = 1
	}
	shift := (maxBits + digits - 1) / digits
	pl := &Plan{
		alg:    opts.Alg,
		k:      k,
		p:      opts.P,
		lbfs:   lbfs,
		ldfs:   opts.DFSSteps,
		levels: levels,
		digits: digits,
		shift:  shift,
		neg:    neg,
		track:  opts.TrackMemory,
	}
	pl.sharesA = cyclicShares(a, digits, shift, opts.P)
	pl.sharesB = cyclicShares(b, digits, shift, opts.P)
	return pl, nil
}

// P returns the worker processor count (excluding any code processors).
func (pl *Plan) P() int { return pl.p }

// Shift returns the digit width in bits.
func (pl *Plan) Shift() int { return pl.shift }

// Levels returns l_total.
func (pl *Plan) Levels() int { return pl.levels }

// InputShares returns worker q's cyclic shares of the two operand digit
// vectors (aliases internal storage; treat as read-only).
func (pl *Plan) InputShares(q int) ([]bigint.Int, []bigint.Int) {
	return pl.sharesA[q], pl.sharesB[q]
}

// Execute runs the plan's program on machine m (whose P must equal the
// plan's) and assembles the product.
func (pl *Plan) Execute(m *machine.Machine) (*Result, error) {
	rep, err := m.Run(func(p *machine.Proc) error {
		share, err := pl.Program(p)
		if err != nil {
			return err
		}
		return p.Store("result", machine.Ints(share))
	})
	if err != nil {
		return nil, err
	}
	_, wDen := pl.alg.WScaled()
	product, err := pl.AssembleFrom(wDen, func(q int) ([]bigint.Int, error) {
		v, ok := m.StoreOf(q, "result")
		if !ok {
			return nil, fmt.Errorf("parallel: processor %d has no result share", q)
		}
		return v, nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		Product: product,
		Report:  rep,
		Shift:   pl.shift,
		Digits:  pl.digits,
		Levels:  pl.levels,
	}, nil
}

// Program is the SPMD body executed by worker processor p (its ID must be in
// [0, plan P)). It returns the processor's cyclic share of the final
// (redundant, wDen^levels-scaled) product digit vector.
func (pl *Plan) Program(p *machine.Proc) ([]bigint.Int, error) {
	myA := pl.sharesA[p.ID()]
	myB := pl.sharesB[p.ID()]
	group := make(collective.Group, pl.p)
	for i := range group {
		group[i] = i
	}
	return pl.Node(p, group, myA, myB, 0, "t")
}

// Node multiplies one sub-problem: shareA/shareB are this processor's
// cyclic shares (entry s of the global vector on group member s mod g) of
// the sub-problem's operand digit vectors. It returns the processor's share
// of the product digit vector (length 2·len globally, same cyclic layout).
// level counts depth from the root; path names the node for message tags
// and fault-phase names.
func (pl *Plan) Node(p *machine.Proc, group collective.Group, shareA, shareB []bigint.Int, level int, path string) ([]bigint.Int, error) {
	if len(group) == 1 {
		return pl.leaf(p, shareA, shareB)
	}
	if pl.track {
		if err := p.Store("in/"+path, machine.Ints(Concat(shareA, shareB))); err != nil {
			return nil, err
		}
		defer p.Free("in/" + path)
	}
	lenTotal := len(shareA) * len(group)
	var out []bigint.Int
	var err error
	if level < pl.ldfs {
		out, err = pl.dfsStep(p, group, shareA, shareB, level, path, lenTotal)
	} else {
		out, err = pl.bfsStep(p, group, shareA, shareB, level, path, lenTotal)
	}
	if err != nil {
		return nil, err
	}
	if pl.track {
		if err := p.Store("out/"+path, machine.Ints(out)); err != nil {
			return nil, err
		}
		defer p.Free("out/" + path)
	}
	return out, nil
}

// EvalRowBlocks computes a processor's share of one evaluation: an
// evaluation-matrix row applied block-wise to the k digit blocks of the
// local share, charging the word work. The cyclic layout makes each block a
// contiguous local sub-slice. Every entry is combined in one pooled Acc and
// copied onto one limb slab for the whole vector; the entries of a unit row
// (evaluation at 0 or ∞) share the digits' limbs instead.
func EvalRowBlocks(p *machine.Proc, row []int64, share []bigint.Int, k int) []bigint.Int {
	lb := len(share) / k
	out := make([]bigint.Int, lb)
	acc := bigint.NewAcc()
	defer acc.Release()
	var slab []uint64
	var work int64
	for t := 0; t < lb; t++ {
		acc.Reset()
		var lone bigint.Int
		var loneC int64
		terms := 0
		for m := 0; m < k; m++ {
			c := row[m]
			if c == 0 {
				continue
			}
			v := share[m*lb+t]
			if v.IsZero() {
				continue
			}
			acc.AddMul(v, c)
			lone, loneC, terms = v, c, terms+1
			work += 2 * v.Words()
		}
		out[t], slab = acc.AppendEntry(slab, lb-t, terms, lone, loneC)
	}
	p.Work(work)
	return out
}

// Fold applies the scaled interpolation rows w and folds the coefficients
// locally: given this processor's aligned slices of the 2k-1 child product
// vectors (each slice covering the offset class s ≡ me (mod g), listed low
// to high), it computes the processor's share of the parent product vector:
//
//	PV[t] = scale·Σ_i c̄_i[t − i·len/k],  c̄_i[s] = Σ_j w[i][j]·PC_j[s].
//
// Both indices stay in the processor's own offset class because len/k ≡ 0
// (mod g) — interpolation costs no communication beyond the slice exchange.
// The plain tier folds with the algorithm's WScaled rows at scale 1; the
// fault-tolerant tier folds with the rows of its surviving points and
// scales them to the denominator common to every surviving set. Each
// output position is summed in one pooled Acc, scaled in place, and copied
// onto one limb slab; a position that is one coefficient's lone unit term
// shares that entry's limbs.
func (pl *Plan) Fold(p *machine.Proc, w [][]int64, scale int64, slices [][]bigint.Int, lenTotal, g int) []bigint.Int {
	k := pl.k
	childLen := len(slices[0]) // entries per class of one child product
	lq := lenTotal / (k * g)   // block offset step in class-local units
	out := make([]bigint.Int, 2*lenTotal/g)
	acc := bigint.NewAcc()
	defer acc.Release()
	var slab []uint64
	var work int64
	for t := range out {
		// Position t collects c̄_i[t − i·lq] from every coefficient i whose
		// child slice covers it.
		acc.Reset()
		var lone bigint.Int
		var loneC int64
		terms := 0
		for i := 0; i < 2*k-1; i++ {
			s := t - i*lq
			if s < 0 || s >= childLen {
				continue
			}
			for j := 0; j < 2*k-1; j++ {
				c := w[i][j]
				if c == 0 {
					continue
				}
				v := slices[j][s]
				if v.IsZero() {
					continue
				}
				acc.AddMul(v, c)
				lone, loneC, terms = v, c, terms+1
				work += 2 * v.Words()
			}
		}
		if scale != 1 {
			acc.Scale(scale)
			loneC = 0 // a rescaled entry is never a bare copy of its term
		}
		out[t], slab = acc.AppendEntry(slab, len(out)-t, terms, lone, loneC)
		if scale != 1 && !out[t].IsZero() {
			work += out[t].Words()
		}
	}
	p.Work(work)
	return out
}

// AddColumn adds column j of the scaled W^T, applied to one DFS
// sub-problem's product share child, into this processor's coefficient
// shares out (2·lenTotal/g entries): out[i·len/(k·g) + s] += wNum[i][j]·child[s]
// for each of the 2k-1 coefficients i. Each touched position is summed in
// one pooled Acc and copied onto one limb slab; a position whose first
// contribution is a lone unit term shares that entry's limbs.
func (pl *Plan) AddColumn(p *machine.Proc, j int, child, out []bigint.Int, lenTotal, g int) {
	k := pl.k
	wNum, _ := pl.alg.WScaled()
	lq := lenTotal / (k * g)
	acc := bigint.NewAcc()
	defer acc.Release()
	var slab []uint64
	var work int64
	for t := range out {
		acc.Reset()
		var lone bigint.Int
		var loneC int64
		terms := 0
		for i := 0; i < 2*k-1; i++ {
			s := t - i*lq
			if s < 0 || s >= len(child) {
				continue
			}
			c := wNum[i][j]
			if c == 0 {
				continue
			}
			v := child[s]
			if v.IsZero() {
				continue
			}
			acc.AddMul(v, c)
			lone, loneC, terms = v, c, terms+1
			work += 2 * v.Words()
		}
		if terms == 0 {
			continue // column j does not reach position t
		}
		if !out[t].IsZero() {
			acc.Add(out[t])
			terms++
		}
		out[t], slab = acc.AppendEntry(slab, len(out)-t, terms, lone, loneC)
	}
	p.Work(work)
}

// dfsStep solves the 2k-1 sub-problems sequentially on the whole group:
// evaluation, recursion and interpolation are all local (Section 3: "a DFS
// step does not involve communication at all").
func (pl *Plan) dfsStep(p *machine.Proc, group collective.Group, shareA, shareB []bigint.Int, level int, path string, lenTotal int) ([]bigint.Int, error) {
	k := pl.k
	g := len(group)
	out := make([]bigint.Int, 2*lenTotal/g)
	for j := 0; j < 2*k-1; j++ {
		evalA := EvalRowBlocks(p, pl.alg.U()[j], shareA, k)
		evalB := EvalRowBlocks(p, pl.alg.U()[j], shareB, k)
		child, err := pl.Node(p, group, evalA, evalB, level+1, fmt.Sprintf("%s.%d", path, j))
		if err != nil {
			return nil, err
		}
		pl.AddColumn(p, j, child, out, lenTotal, g)
	}
	return out, nil
}

// bfsStep distributes the 2k-1 sub-problems across the grid columns
// (communication within rows only), recurses in parallel, and interpolates
// with a reverse within-row exchange plus local folding.
func (pl *Plan) bfsStep(p *machine.Proc, group collective.Group, shareA, shareB []bigint.Int, level int, path string, lenTotal int) ([]bigint.Int, error) {
	k := pl.k
	g := len(group)
	cols := 2*k - 1
	gPrime := g / cols
	me := group.Index(p.ID())
	row, col := me%gPrime, me/gPrime // column-major grid: me = row + col·g'

	rowGroup := make(collective.Group, cols)
	for c := 0; c < cols; c++ {
		rowGroup[c] = group[row+c*gPrime]
	}

	// Evaluation + downward redistribution: my slice of evaluation j goes
	// to the row-mate in column j.
	outA := make([]machine.Ints, cols)
	outB := make([]machine.Ints, cols)
	for j := 0; j < cols; j++ {
		outA[j] = machine.Ints(EvalRowBlocks(p, pl.alg.U()[j], shareA, k))
		outB[j] = machine.Ints(EvalRowBlocks(p, pl.alg.U()[j], shareB, k))
	}
	inA, err := collective.Exchange(p, rowGroup, path+"/xa", outA)
	if err != nil {
		return nil, err
	}
	inB, err := collective.Exchange(p, rowGroup, path+"/xb", outB)
	if err != nil {
		return nil, err
	}
	p.Mark("eval@" + strconv.Itoa(level))

	// Interleave received slices into my share of sub-problem `col`:
	// child entry u came from row-mate u mod (2k-1), position u div (2k-1).
	per := len(inA[0])
	childA := make([]bigint.Int, per*cols)
	childB := make([]bigint.Int, per*cols)
	for u := 0; u < per*cols; u++ {
		childA[u] = inA[u%cols][u/cols]
		childB[u] = inB[u%cols][u/cols]
	}

	// Recurse within my column.
	colGroup := make(collective.Group, gPrime)
	for r := 0; r < gPrime; r++ {
		colGroup[r] = group[r+col*gPrime]
	}
	child, err := pl.Node(p, colGroup, childA, childB, level+1, fmt.Sprintf("%s.%d", path, col))
	if err != nil {
		return nil, err
	}
	p.Mark("mul@" + strconv.Itoa(level))

	// Upward redistribution (reverse of the downward one): my share of
	// child product entries splits into 2k-1 offset classes mod g; class
	// of row-mate c' goes to c'. I receive my class of every sibling.
	outUp := make([]machine.Ints, cols)
	for c := 0; c < cols; c++ {
		slice := make([]bigint.Int, 0, (len(child)+cols-1-c)/cols)
		for u := c; u < len(child); u += cols {
			slice = append(slice, child[u])
		}
		outUp[c] = machine.Ints(slice)
	}
	inUp, err := collective.Exchange(p, rowGroup, path+"/xu", outUp)
	if err != nil {
		return nil, err
	}
	slices := make([][]bigint.Int, cols)
	for j := 0; j < cols; j++ {
		slices[j] = []bigint.Int(inUp[j])
	}
	wNum, _ := pl.alg.WScaled()
	out := pl.Fold(p, wNum, 1, slices, lenTotal, g)
	p.Mark("interp@" + strconv.Itoa(level))
	return out, nil
}

// leaf multiplies a fully-local sub-problem: recompose the digit vectors
// into integers (straight into the sequential algorithm's workspace),
// multiply with the sequential algorithm into a pooled accumulator
// (charging its exact word-operation count), and split the product
// straight out of it into a digit vector of length 2R (the last entry
// absorbing the unbounded top bits).
func (pl *Plan) leaf(p *machine.Proc, shareA, shareB []bigint.Int) ([]bigint.Int, error) {
	var stats toom.Stats
	z := bigint.NewAcc()
	defer z.Release()
	pl.alg.MulSharesTo(z, shareA, shareB, pl.shift, &stats)
	var rw int64
	for _, d := range shareA {
		rw += d.Words()
	}
	for _, d := range shareB {
		rw += d.Words()
	}
	p.Work(rw + stats.WordOps)
	return splitSigned(z, 2*len(shareA), pl.shift), nil
}

// splitSigned splits z into n entries of base 2^shift onto one limb slab:
// entries 0..n-2 are the normalized digits of |z| and entry n-1 absorbs all
// remaining high bits; every entry carries z's sign so the positional sum
// equals z.
func splitSigned(z *bigint.Acc, n, shift int) []bigint.Int {
	out := make([]bigint.Int, n)
	// Each digit spills into at most one limb beyond its share of z's.
	slab := make([]uint64, 0, z.WordLen()+n)
	for t := 0; t < n-1; t++ {
		out[t], slab = z.AppendBits(slab, t*shift, shift)
	}
	top := (n - 1) * shift
	out[n-1], _ = z.AppendBits(slab, top, z.BitLen()-top)
	return out
}

// AssembleFrom reconstructs the product from the workers' result shares
// (share(q) = worker q's cyclic share of the final product vector). The
// shares carry one deferred interpolation denominator per level: den for
// the top BFS level's fold and wDen for every other. It is unmetered: the
// algorithm's final state leaves the product distributed, and this models
// reading it out (Theorems 5.1-5.3 charge no reassembly).
func (pl *Plan) AssembleFrom(den int64, share func(q int) ([]bigint.Int, error)) (bigint.Int, error) {
	var full []bigint.Int
	for q := 0; q < pl.p; q++ {
		s, err := share(q)
		if err != nil {
			return bigint.Int{}, err
		}
		if full == nil {
			full = make([]bigint.Int, len(s)*pl.p)
		}
		if len(s)*pl.p != len(full) {
			return bigint.Int{}, fmt.Errorf("parallel: ragged result shares")
		}
		for u, v := range s {
			full[q+u*pl.p] = v
		}
	}
	z := toom.Recompose(full, pl.shift)
	_, wDen := pl.alg.WScaled()
	for i := 0; i < pl.levels; i++ {
		z = z.DivExactInt64(den)
		den = wDen
	}
	if pl.neg {
		z = z.Neg()
	}
	return z, nil
}

// DFSStepsFor returns l_DFS per Lemma 3.1: the least number of DFS steps
// such that the per-processor footprint n/(P^{log_{2k-1}k}·k^l) fits in
// memoryWords (with n in words). Zero when memory is unlimited.
func DFSStepsFor(nWords int64, k, p int, memoryWords int64) int {
	if memoryWords <= 0 {
		return 0
	}
	lbfs := logBase(p, 2*k-1)
	if lbfs < 0 {
		return 0
	}
	l := 0
	for {
		// n/P · ((2k-1)/k)^lbfs / k^l — Lemma 3.1's footprint.
		fp := float64(nWords) / float64(p)
		for i := 0; i < lbfs; i++ {
			fp *= float64(2*k-1) / float64(k)
		}
		for i := 0; i < l; i++ {
			fp /= float64(k)
		}
		if int64(fp) <= memoryWords || l > 60 {
			return l
		}
		l++
	}
}

// cyclicShares splits |v| into `digits` base-2^shift digits and deals them
// cyclically to p processors: share[q][u] = digit(q + u·p). The digits are
// cut straight out of one pooled accumulator onto one limb slab.
func cyclicShares(v bigint.Int, digits, shift, p int) [][]bigint.Int {
	acc := bigint.NewAcc()
	defer acc.Release()
	acc.SetInt(v.Abs())
	slab := make([]uint64, 0, digits*((shift+63)/64))
	shares := make([][]bigint.Int, p)
	per := digits / p
	for q := 0; q < p; q++ {
		shares[q] = make([]bigint.Int, per)
		for u := 0; u < per; u++ {
			s := q + u*p
			shares[q][u], slab = acc.AppendBits(slab, s*shift, shift)
		}
	}
	return shares
}

// Concat returns a fresh slice holding a followed by b.
func Concat(a, b []bigint.Int) []bigint.Int {
	out := make([]bigint.Int, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

// logBase returns log_b(v) if v is an exact power of b, else -1.
func logBase(v, b int) int {
	if v < 1 {
		return -1
	}
	l := 0
	for v > 1 {
		if v%b != 0 {
			return -1
		}
		v /= b
		l++
	}
	return l
}

// Pow returns base^exp for small non-negative exponents.
func Pow(base, exp int) int {
	out := 1
	for i := 0; i < exp; i++ {
		out *= base
	}
	return out
}

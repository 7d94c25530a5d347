// Package toom implements sequential Toom-Cook-k long integer
// multiplication (Section 2.2 of the paper, Algorithm 1), including the
// Lazy-Interpolation variant of Bermudo Mera et al. (Algorithm 2).
//
// An Algorithm value captures the bilinear form ⟨U, V, W⟩ induced by a split
// number k and a set of 2k-1 evaluation points: U = V is the evaluation
// matrix for the digit polynomials and W^T inverts the product-polynomial
// evaluation. Integer work is kept exactly integral: U must have integer
// entries (true for all standard point sets), and W^T is applied as a scaled
// integer matrix (multiply by d·W^T, then divide exactly by d), so no
// rational arithmetic touches the big operands on the hot path.
//
// The parallel algorithm in internal/parallel distributes the same bilinear
// form: its BFS steps apply the rows of U and of the scaled W^T (U,
// WScaled) to digit blocks spread across a processor grid, and its leaves
// multiply through MulSharesTo.
package toom

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/bigint"
	"repro/internal/mat"
	"repro/internal/points"
)

// DefaultThresholdBits is the operand size below which the recursion bottoms
// out into schoolbook multiplication. It plays the role of the paper's
// hardware limit s: a product of two ≤s-bit integers is a "single machine
// operation" of the model (here, one schoolbook call on a handful of limbs).
const DefaultThresholdBits = 256

// Stats accumulates operation counts for one multiplication; pass to
// MulWithStats for the ablation benchmarks.
type Stats struct {
	BaseMuls       int64 // schoolbook base-case multiplications
	RecursiveCalls int64 // internal nodes of the recursion tree
	Evaluations    int64 // digit-vector evaluations (applications of U)
	Interpolations int64 // applications of W^T
	WordOps        int64 // word-level arithmetic operations (the model's F)
}

// chargeWords accumulates word-level operation counts when stats != nil.
func (s *Stats) chargeWords(n int64) {
	if s != nil {
		s.WordOps += n
	}
}

// addToom2 adds the counts of one bigint.Acc.SetToom2Mul: each of its
// internal nodes is one recursive call with two evaluations and one
// interpolation.
func (s *Stats) addToom2(c bigint.Toom2Counts) {
	if s == nil {
		return
	}
	s.BaseMuls += c.BaseMuls
	s.RecursiveCalls += c.Nodes
	s.Evaluations += 2 * c.Nodes
	s.Interpolations += c.Nodes
	s.chargeWords(c.WordOps)
}

// Algorithm is a ready-to-run Toom-Cook-k multiplier. It is immutable after
// construction and safe for concurrent use.
type Algorithm struct {
	k             int
	pts           []points.Point
	u             [][]int64 // (2k-1)×k integer evaluation matrix
	wNum          [][]int64 // (2k-1)×(2k-1) scaled interpolation numerators
	wDen          int64     // common denominator: W^T = wNum / wDen
	thresholdBits int
	interpSeq     InterpolationSequence // optional Toom-Graph schedule
	evalPairs     []evalPair            // Zanoni evaluation-reuse pairs (±v)
	evalSingles   []int                 // rows not covered by a pair
	evalUnit      []int                 // per U row: m if the row is e_m (evaluation = digit m), else -1
	interpUnit    []int                 // per W^T row: j if the scaled row is e_j and wDen = 1, else -1
	toom2         bool                  // Karatsuba on 0, 1, ∞ with no sequence: mul runs bigint's counted Toom-2 kernel
}

// evalPair marks two evaluation rows at opposite finite points (+v, −v):
// their values share the even/odd digit sums (E ± O), so both evaluations
// cost one pass over the digits instead of two — Zanoni's evaluation-reuse
// optimization mentioned in Section 1.1.
type evalPair struct {
	pos, neg int
}

// InterpolationSequence is an optimized interpolation schedule (a Toom-Graph
// inversion sequence, Definition 2.3): Apply must compute W^T·v exactly.
// internal/toomgraph.Sequence implements it.
type InterpolationSequence interface {
	Apply(v []bigint.Int) ([]bigint.Int, error)
}

// WithInterpolationSequence returns a copy of alg whose Interpolate uses the
// given inversion sequence (falling back to the scaled-matrix path if the
// sequence reports an error); its multiplication runs the generic recursion,
// since the Toom-2 kernel's interpolation is built in. The caller is responsible for supplying a
// sequence that matches alg's evaluation points; the toom tests and the
// ablation benchmarks verify the catalogued ones.
func (alg *Algorithm) WithInterpolationSequence(seq InterpolationSequence) *Algorithm {
	cp := *alg
	cp.interpSeq = seq
	cp.toom2 = false
	return &cp
}

// standard holds New's algorithms by k: an Algorithm is immutable (its
// options return copies), so every caller can share one.
var standard sync.Map // int → *Algorithm

// New returns the Toom-Cook-k algorithm over the standard evaluation points
// (0, 1, -1, 2, …, ∞). k must be at least 2; k = 2 is Karatsuba. It is
// built once per k.
func New(k int) (*Algorithm, error) {
	if k < 2 {
		return nil, fmt.Errorf("toom: k must be >= 2, got %d", k)
	}
	if alg, ok := standard.Load(k); ok {
		return alg.(*Algorithm), nil
	}
	alg, err := NewWithPoints(k, points.Standard(2*k-1))
	if err != nil {
		return nil, err
	}
	shared, _ := standard.LoadOrStore(k, alg)
	return shared.(*Algorithm), nil
}

// MustNew is New for known-good k; it panics on error.
func MustNew(k int) *Algorithm {
	alg, err := New(k)
	if err != nil {
		panic(err)
	}
	return alg
}

// NewWithPoints builds a Toom-Cook-k algorithm from an explicit point set of
// exactly 2k-1 pairwise non-proportional points. The evaluation matrix must
// be integral (all standard sets are); the interpolation matrix may be — and
// usually is — rational.
func NewWithPoints(k int, pts []points.Point) (*Algorithm, error) {
	if k < 2 {
		return nil, fmt.Errorf("toom: k must be >= 2, got %d", k)
	}
	if len(pts) != 2*k-1 {
		return nil, fmt.Errorf("toom: Toom-Cook-%d needs %d points, got %d", k, 2*k-1, len(pts))
	}
	if err := points.Valid(pts, 2*k-1); err != nil {
		return nil, err
	}
	u, err := intMatrix(points.EvalMatrix(pts, k))
	if err != nil {
		return nil, fmt.Errorf("toom: evaluation matrix not integral: %w", err)
	}
	wt, err := points.Interpolation(pts, 2*k-1)
	if err != nil {
		return nil, err
	}
	wNum, wDen, err := scaledIntMatrix(wt)
	if err != nil {
		return nil, fmt.Errorf("toom: interpolation matrix: %w", err)
	}
	alg := &Algorithm{
		k:             k,
		pts:           append([]points.Point(nil), pts...),
		u:             u,
		wNum:          wNum,
		wDen:          wDen,
		thresholdBits: DefaultThresholdBits,
	}
	alg.evalPairs, alg.evalSingles = detectPairs(pts)
	alg.toom2 = isToom2(u, wNum, wDen)
	alg.evalUnit = unitRows(u)
	alg.interpUnit = unitRows(wNum)
	if wDen != 1 {
		// A row e_j would then yield p_j/wDen, not p_j: none is read in place.
		for i := range alg.interpUnit {
			alg.interpUnit[i] = -1
		}
	}
	return alg, nil
}

// isToom2 reports whether ⟨U, W⟩ is Karatsuba's on the points 0, 1, ∞, the
// bilinear form bigint.Acc.SetToom2Mul hard-codes.
func isToom2(u, wNum [][]int64, wDen int64) bool {
	rowsEqual := func(a, b [][]int64) bool { return slices.EqualFunc(a, b, slices.Equal[[]int64]) }
	return wDen == 1 &&
		rowsEqual(u, [][]int64{{1, 0}, {1, 1}, {0, 1}}) &&
		rowsEqual(wNum, [][]int64{{1, 0, 0}, {-1, 1, -1}, {0, 0, 1}})
}

// detectPairs finds (+v, −v) finite point pairs for evaluation reuse.
func detectPairs(pts []points.Point) ([]evalPair, []int) {
	var pairs []evalPair
	used := make([]bool, len(pts))
	for i := range pts {
		if used[i] || pts[i].IsInfinity() || pts[i].X.IsZero() {
			continue
		}
		for j := i + 1; j < len(pts); j++ {
			if used[j] || pts[j].IsInfinity() {
				continue
			}
			if pts[i].H.Equal(pts[j].H) && pts[i].X.Equal(pts[j].X.Neg()) {
				pairs = append(pairs, evalPair{pos: i, neg: j})
				used[i], used[j] = true, true
				break
			}
		}
	}
	var singles []int
	for i := range pts {
		if !used[i] {
			singles = append(singles, i)
		}
	}
	return pairs, singles
}

// unitRows returns, per row, the column j when the row is the unit vector
// e_j, and -1 otherwise. Such a row's output is input j itself: the
// recursion reads it in place instead of copying it (evaluation at 0 and ∞,
// and the matching interpolation rows when the denominator is 1).
func unitRows(rows [][]int64) []int {
	out := make([]int, len(rows))
	for i, row := range rows {
		out[i] = -1
		nonzero := 0
		for j, v := range row {
			if v != 0 {
				nonzero++
				if v == 1 {
					out[i] = j
				}
			}
		}
		if nonzero != 1 {
			out[i] = -1
		}
	}
	return out
}

// WithoutEvalReuse returns a copy that evaluates every row independently
// (for the evaluation-reuse ablation).
func (alg *Algorithm) WithoutEvalReuse() *Algorithm {
	cp := *alg
	cp.evalPairs = nil
	cp.evalSingles = make([]int, len(alg.pts))
	for i := range cp.evalSingles {
		cp.evalSingles[i] = i
	}
	return &cp
}

// K returns the split number.
func (alg *Algorithm) K() int { return alg.k }

// Points returns the evaluation points (a copy).
func (alg *Algorithm) Points() []points.Point {
	return append([]points.Point(nil), alg.pts...)
}

// ThresholdBits returns the base-case threshold in bits.
func (alg *Algorithm) ThresholdBits() int { return alg.thresholdBits }

// WithThreshold returns a copy of alg with a different base-case threshold
// (minimum 64 bits, so the recursion always terminates).
func (alg *Algorithm) WithThreshold(bits int) *Algorithm {
	if bits < 64 {
		bits = 64
	}
	cp := *alg
	cp.thresholdBits = bits
	return &cp
}

// Mul returns a·b via recursive Toom-Cook-k (Algorithm 1).
func (alg *Algorithm) Mul(a, b bigint.Int) bigint.Int {
	return alg.MulWithStats(a, b, nil)
}

// MulWithStats is Mul with operation counting; stats may be nil.
//
// The recursion runs depth-first over a pooled workspace of bigint.Acc
// frames (workspace.go), so in steady state the returned product is its
// only heap allocation. The counts are value-dependent — digits, E±O sums
// and interpolation accumulators are charged at their actual word lengths —
// and are taken at exactly the points the Int-based formulation charged
// them. Karatsuba on the points 0, 1, ∞ runs bigint's dedicated counted
// Toom-2 kernel instead of the frames, with the same counts.
func (alg *Algorithm) MulWithStats(a, b bigint.Int, stats *Stats) bigint.Int {
	ws := getWorkspace()
	defer putWorkspace(ws)
	x, y := &ws.in[0], &ws.in[1]
	x.SetInt(a)
	y.SetInt(b)
	alg.mul(ws, 0, &ws.out, x, y, stats)
	return ws.out.Value()
}

// MulSharesTo sets dst = Recompose(sharesA, shift)·Recompose(sharesB,
// shift), recomposing both digit vectors straight into the workspace and
// writing the product into dst, so a caller that splits the product back
// into digits (the parallel algorithm's leaf) never materializes it as an
// Int. The stats are those of MulWithStats on the recomposed operands (the
// recomposition itself is the caller's to charge).
func (alg *Algorithm) MulSharesTo(dst *bigint.Acc, sharesA, sharesB []bigint.Int, shift int, stats *Stats) {
	ws := getWorkspace()
	defer putWorkspace(ws)
	for i, shares := range [2][]bigint.Int{sharesA, sharesB} {
		in := &ws.in[i]
		in.Reset()
		for j := len(shares) - 1; j >= 0; j-- {
			in.Shl(uint(shift))
			in.Add(shares[j])
		}
	}
	alg.mul(ws, 0, dst, &ws.in[0], &ws.in[1], stats)
}

// mul writes x·y into dst (Algorithm 1), using ws.frames[depth] for this
// node's digits, evaluations, products and coefficients, or the Toom-2
// kernel for the whole subtree when it applies. dst must be neither x nor y.
func (alg *Algorithm) mul(ws *workspace, depth int, dst, x, y *bigint.Acc, stats *Stats) {
	if alg.toom2 {
		stats.addToom2(dst.SetToom2Mul(x, y, alg.thresholdBits))
		return
	}
	if x.IsZero() || y.IsZero() {
		dst.Reset()
		return
	}
	maxBits := max(x.BitLen(), y.BitLen())
	if maxBits <= alg.thresholdBits {
		if stats != nil {
			stats.BaseMuls++
			// Schoolbook word cost of the base case.
			stats.chargeWords(x.Words() * y.Words())
		}
		dst.SetMul(x, y)
		return
	}
	if stats != nil {
		stats.RecursiveCalls++
	}
	k := alg.k
	// Shared base B = 2^shift, k digits each of shift bits (Algorithm 1,
	// line 4; the +1 rounding of the paper's base definition is the
	// ceiling here). Digits are taken from |x| and |y|.
	shift := (maxBits + k - 1) / k
	f := ws.frame(depth, k)
	for i := 0; i < k; i++ {
		f.da[i].SetBits(x, i*shift, shift)
		f.db[i].SetBits(y, i*shift, shift)
	}

	// Evaluation: a' = U·ā, b' = V·b̄ (lines 6-7).
	alg.evalStep(f, f.da, f.ea, f.opA, stats)
	alg.evalStep(f, f.db, f.eb, f.opB, stats)

	// Pointwise products, recursing on large operands (lines 8-14); the
	// children share the frame one level down.
	for i := range f.prods {
		alg.mul(ws, depth+1, &f.prods[i], f.opA[i], f.opB[i], stats)
	}

	// Interpolation and recomposition (lines 15-16) of |x|·|y|.
	alg.interpRecompose(f, dst, shift, stats)
	if x.Sign()*y.Sign() < 0 {
		dst.Neg()
	}
}

// interpRecompose applies W^T to the frame's products (line 15) and writes
// c = Σ c̄_i·B^i into dst with carries (line 16), charging each coefficient
// once for the recomposition.
func (alg *Algorithm) interpRecompose(f *frame, dst *bigint.Acc, shift int, stats *Stats) {
	alg.interpStep(f.prods, f.coeffs, f.coef, stats)
	dst.Reset()
	for i, c := range f.coef {
		stats.chargeWords(c.Words())
		dst.AddShl(c, uint(i*shift))
	}
}

// EvalDigits applies the evaluation matrix U to a digit vector of length k,
// returning the 2k-1 evaluations. Exported for reuse by the parallel
// algorithm, whose BFS evaluation step performs exactly this per block. It
// runs the recursion's own evaluation step on a pooled frame.
func (alg *Algorithm) EvalDigits(digits []bigint.Int, stats *Stats) []bigint.Int {
	if len(digits) != alg.k {
		panic(fmt.Sprintf("toom: EvalDigits needs %d digits, got %d", alg.k, len(digits)))
	}
	ws := getWorkspace()
	defer putWorkspace(ws)
	f := ws.frame(0, alg.k)
	load(f.da, digits)
	alg.evalStep(f, f.da, f.ea, f.opA, stats)
	return values(f.opA)
}

// evalStep computes the 2k-1 evaluations U·digits and points ops[i] at
// evaluation i: a unit row (evaluation at 0 or ∞) is the digit itself and is
// read in place, every other row is accumulated into out[i]. The frame's
// even/odd accumulators serve the paired rows.
func (alg *Algorithm) evalStep(f *frame, digits, out []bigint.Acc, ops []*bigint.Acc, stats *Stats) {
	if stats != nil {
		stats.Evaluations++
	}
	// Paired rows (±v): one pass computes the even and odd digit sums E and
	// O; the two evaluations are E+O and E−O (Zanoni's reuse).
	even, odd := &f.even, &f.odd
	for _, pr := range alg.evalPairs {
		even.Reset()
		odd.Reset()
		var work int64
		for m, c := range alg.u[pr.pos] {
			d := &digits[m]
			if c == 0 || d.IsZero() {
				continue
			}
			work += 2 * d.Words()
			if m%2 == 0 {
				even.AddMulAcc(d, c)
			} else {
				odd.AddMulAcc(d, c)
			}
		}
		pos, neg := &out[pr.pos], &out[pr.neg]
		ops[pr.pos], ops[pr.neg] = pos, neg
		pos.SetSum(even, odd)
		neg.SetDiff(even, odd)
		work += 2 * even.Words()
		stats.chargeWords(work)
	}
	for _, i := range alg.evalSingles {
		if m := alg.evalUnit[i]; m >= 0 {
			d := &digits[m]
			if !d.IsZero() {
				stats.chargeWords(2 * d.Words())
			}
			ops[i] = d
			continue
		}
		var work int64
		for m, c := range alg.u[i] {
			if c != 0 && !digits[m].IsZero() {
				work += 2 * digits[m].Words()
			}
		}
		stats.chargeWords(work)
		ops[i] = &out[i]
		combine(&out[i], alg.u[i], digits)
	}
}

// Interpolate applies W^T to the 2k-1 pointwise products, returning the
// 2k-1 coefficients of the product polynomial. All divisions are exact; a
// failure indicates corrupted inputs and panics. It runs the recursion's own
// interpolation step on a pooled frame.
func (alg *Algorithm) Interpolate(prods []bigint.Int, stats *Stats) []bigint.Int {
	if len(prods) != 2*alg.k-1 {
		panic(fmt.Sprintf("toom: Interpolate needs %d products, got %d", 2*alg.k-1, len(prods)))
	}
	ws := getWorkspace()
	defer putWorkspace(ws)
	f := ws.frame(0, alg.k)
	load(f.prods, prods)
	alg.interpStep(f.prods, f.coeffs, f.coef, stats)
	return values(f.coef)
}

// interpStep computes the coefficients W^T·prods and points cs[i] at
// coefficient i, through the Toom-Graph schedule when one is set and
// succeeds, the scaled matrix otherwise. A unit row of the scaled matrix
// (denominator 1) is product j itself and is read in place; every other row
// is accumulated into coeffs[i].
func (alg *Algorithm) interpStep(prods, coeffs []bigint.Acc, cs []*bigint.Acc, stats *Stats) {
	if alg.interpSeq != nil {
		if out, err := alg.interpSeq.Apply(accValues(prods)); err == nil {
			if stats != nil {
				stats.Interpolations++
				// A schedule touches each value a handful of times; charge
				// the touched words (cheaper than the dense-matrix charge,
				// which is the point of the Toom-Graph optimization).
				var w int64
				for _, v := range out {
					w += 2 * v.Words()
				}
				stats.chargeWords(w)
			}
			load(coeffs, out)
			for i := range cs {
				cs[i] = &coeffs[i]
			}
			return
		}
	}
	if stats != nil {
		stats.Interpolations++
		stats.chargeWords(rowsWork(alg.wNum, prods))
	}
	for i, row := range alg.wNum {
		if j := alg.interpUnit[i]; j >= 0 {
			// The pre-division accumulator would be 1·prods[j].
			stats.chargeWords(prods[j].Words())
			cs[i] = &prods[j]
			continue
		}
		applyRowScaled(row, prods, alg.wDen, &coeffs[i], stats)
		cs[i] = &coeffs[i]
	}
}

// applyRowScaled writes (row·x)/den into out; the scalar combination and
// the exact division run in place. The F charge uses the pre-division word
// length.
func applyRowScaled(row []int64, x []bigint.Acc, den int64, out *bigint.Acc, stats *Stats) {
	if len(row) != len(x) {
		panic("toom: applyRowScaled width mismatch")
	}
	combine(out, row, x)
	stats.chargeWords(out.Words())
	out.DivExact(den)
}

// combine sets o = Σ_j row[j]·x[j]. When the first two nonzero terms both
// have coefficient ±1 they are formed in one pass (SetSum/SetDiff) instead
// of a copy followed by an add.
func combine(o *bigint.Acc, row []int64, x []bigint.Acc) {
	o.Reset()
	var first *bigint.Acc // a held-back leading ±1 term
	var firstC int64
	for j, c := range row {
		xj := &x[j]
		if c == 0 || xj.IsZero() {
			continue
		}
		unit := c == 1 || c == -1
		switch {
		case first == nil && unit && o.IsZero():
			first, firstC = xj, c
			continue
		case first != nil && unit:
			// firstC·first + c·xj = firstC·(first ± xj).
			if c == firstC {
				o.SetSum(first, xj)
			} else {
				o.SetDiff(first, xj)
			}
			if firstC < 0 {
				o.Neg()
			}
			first = nil
			continue
		case first != nil:
			o.AddMulAcc(first, firstC)
			first = nil
		}
		o.AddMulAcc(xj, c)
	}
	if first != nil {
		o.AddMulAcc(first, firstC)
	}
}

// rowsWork returns the word-operation count of applying rows to x: each
// nonzero coefficient costs one scalar-by-big multiply plus accumulate,
// charged as the operand's word length.
func rowsWork(rows [][]int64, x []bigint.Acc) int64 {
	var work int64
	for _, row := range rows {
		for j, c := range row {
			if c == 0 {
				continue
			}
			work += 2 * x[j].Words()
		}
	}
	return work
}

// splitDigits returns the k digits of |a| in base 2^shift (low digit first).
func splitDigits(a bigint.Int, k, shift int) []bigint.Int {
	d := make([]bigint.Int, k)
	for i := 0; i < k; i++ {
		d[i] = a.Extract(i*shift, shift)
	}
	return d
}

// Recompose evaluates a signed coefficient vector at B = 2^shift:
// Σ coeffs[i]·2^{i·shift}. The signed adds perform the carry propagation
// that Algorithm 1 calls "compute the carry". Each coefficient is added in
// place at its offset, highest first so the accumulator is sized once: the
// nonnegative ones into one accumulator and the negative ones into another,
// whose sum is taken at the end, so the cost is linear in the coefficients'
// total size.
//
//ftlint:allow costcharge recomposition is charged by the callers: the recursion charges c.Words() per coefficient as it recomposes, and AssembleFrom runs host-side outside the model
func Recompose(coeffs []bigint.Int, shift int) bigint.Int {
	pos, neg, c := bigint.NewAcc(), bigint.NewAcc(), bigint.NewAcc()
	defer pos.Release()
	defer neg.Release()
	defer c.Release()
	for i := len(coeffs) - 1; i >= 0; i-- {
		c.SetInt(coeffs[i])
		if c.Sign() < 0 {
			neg.AddShl(c, uint(i*shift))
		} else {
			pos.AddShl(c, uint(i*shift))
		}
	}
	if !neg.IsZero() {
		pos.SetSum(pos, neg)
	}
	return pos.Take()
}

// ApplyRows computes M·x for an integer matrix given as int64 rows. It is
// the workhorse of both evaluation and (scaled) interpolation: each output
// is a small-scalar combination of big integers.
//
//ftlint:allow costcharge a context-free primitive: the recursion charges the same row work via rowsWork, and its other callers (softfault, multistep) run outside the cost model
func ApplyRows(rows [][]int64, x []bigint.Int) []bigint.Int {
	out := make([]bigint.Int, len(rows))
	acc := bigint.NewAcc()
	defer acc.Release()
	for i, row := range rows {
		if len(row) != len(x) {
			panic("toom: ApplyRows width mismatch")
		}
		for j, c := range row {
			if c == 0 || x[j].IsZero() {
				continue
			}
			acc.AddMul(x[j], c)
		}
		out[i] = acc.Take()
	}
	return out
}

// ApplyRowsToBlocks applies an integer matrix to a vector of *blocks*:
// blocks[j] is a digit vector and the matrix acts block-wise
// (out[i] = Σ_j M[i][j]·blocks[j], element-wise over the block). This is
// the "multiplication between a matrix and a block vector" of Algorithm 2,
// and the local computation of a parallel BFS step.
//
//ftlint:allow costcharge a context-free primitive: lazy-interpolation callers charge via blocksWork and the parallel layers charge the same work to their Proc
func ApplyRowsToBlocks(rows [][]int64, blocks [][]bigint.Int) [][]bigint.Int {
	if len(blocks) == 0 {
		return nil
	}
	blockLen := len(blocks[0])
	for _, b := range blocks {
		if len(b) != blockLen {
			panic("toom: ragged blocks")
		}
	}
	out := make([][]bigint.Int, len(rows))
	acc := bigint.NewAcc()
	defer acc.Release()
	for i, row := range rows {
		if len(row) != len(blocks) {
			panic("toom: ApplyRowsToBlocks width mismatch")
		}
		res := make([]bigint.Int, blockLen)
		for e := 0; e < blockLen; e++ {
			for j, c := range row {
				if c == 0 || blocks[j][e].IsZero() {
					continue
				}
				acc.AddMul(blocks[j][e], c)
			}
			res[e] = acc.Take()
		}
		out[i] = res
	}
	return out
}

// U returns the integer evaluation matrix rows (shared storage; callers must
// not modify).
func (alg *Algorithm) U() [][]int64 { return alg.u }

// WScaled returns the scaled interpolation matrix: rows wNum and the common
// denominator d with W^T = wNum/d (shared storage; callers must not modify).
func (alg *Algorithm) WScaled() ([][]int64, int64) { return alg.wNum, alg.wDen }

// IntRows converts a rational matrix with integer entries to int64 rows —
// used by fault-tolerant wrappers to build extended evaluation matrices.
func IntRows(m *mat.Matrix) ([][]int64, error) { return intMatrix(m) }

// ScaledRows converts a rational matrix to scaled-integer form: rows and a
// common denominator d with M = rows/d. Fault-tolerant interpolation builds
// its matrix on the fly from surviving evaluation points and applies it in
// this form.
func ScaledRows(m *mat.Matrix) ([][]int64, int64, error) { return scaledIntMatrix(m) }

// intMatrix converts a rational matrix with integer entries to int64 rows.
func intMatrix(m *mat.Matrix) ([][]int64, error) {
	rows := make([][]int64, m.Rows())
	for i := 0; i < m.Rows(); i++ {
		rows[i] = make([]int64, m.Cols())
		for j := 0; j < m.Cols(); j++ {
			v := m.At(i, j)
			if !v.IsInt() {
				return nil, fmt.Errorf("entry (%d,%d) = %v is not an integer", i, j, v)
			}
			n, ok := v.Num().Int64()
			if !ok {
				return nil, fmt.Errorf("entry (%d,%d) = %v overflows int64", i, j, v)
			}
			rows[i][j] = n
		}
	}
	return rows, nil
}

// scaledIntMatrix finds the least common denominator d of a rational matrix
// and returns (d·M as int64 rows, d).
func scaledIntMatrix(m *mat.Matrix) ([][]int64, int64, error) {
	den := int64(1)
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			dv, ok := m.At(i, j).Den().Int64()
			if !ok {
				return nil, 0, fmt.Errorf("denominator at (%d,%d) overflows int64", i, j)
			}
			den = lcm64(den, dv)
			if den <= 0 {
				return nil, 0, fmt.Errorf("common denominator overflows int64")
			}
		}
	}
	rows := make([][]int64, m.Rows())
	for i := 0; i < m.Rows(); i++ {
		rows[i] = make([]int64, m.Cols())
		for j := 0; j < m.Cols(); j++ {
			v := m.At(i, j)
			dv, _ := v.Den().Int64()
			nv, ok := v.Num().Int64()
			if !ok {
				return nil, 0, fmt.Errorf("numerator at (%d,%d) overflows int64", i, j)
			}
			scale := den / dv
			prod := nv * scale
			if nv != 0 && prod/nv != scale {
				return nil, 0, fmt.Errorf("scaled entry at (%d,%d) overflows int64", i, j)
			}
			rows[i][j] = prod
		}
	}
	return rows, den, nil
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

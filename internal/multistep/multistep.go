// Package multistep implements the paper's multi-step traversal
// (Sections 4.3 and 6): l BFS steps of Toom-Cook-k merged into a single
// step of a degree-k^l algorithm, whose evaluation points live in F^l.
// Fault tolerance then needs only f redundant *multivariate* evaluation
// points — f extra grid columns of P/(2k-1)^l processors each (Figure 3),
// instead of f·P/(2k-1) — provided the extended point set is in
// (2k-1, l)-general position (Definition 6.1). The redundant points are
// found with the Section 6.2 heuristic (points.FindRedundant).
//
// The package realizes the merged step as an explicit bilinear algorithm:
// inputs split into k^l digits (one variable per merged level, Claim 2.1),
// evaluated at the (2k-1)^l + f points, multiplied pointwise, and
// interpolated from any (2k-1)^l surviving products with an on-the-fly
// matrix. Erasing up to f products — the multiplication-phase fault model —
// never changes the result.
package multistep

import (
	"fmt"

	"repro/internal/bigint"
	"repro/internal/points"
	"repro/internal/rat"
	"repro/internal/toom"
)

// Algorithm is a fault-tolerant merged-step Toom-Cook-k^l bilinear form.
type Algorithm struct {
	K, L, F int
	pts     []points.MultiPoint
	u       [][]int64 // ((2k-1)^l+f) × k^l evaluation matrix
	base    *toom.Algorithm
	wCache  map[string]cachedW
}

type cachedW struct {
	rows [][]int64
	den  int64
}

// New constructs the merged-step algorithm: the (2k-1)^l tensor grid of the
// standard finite values extended with f redundant points from the general-
// position heuristic.
func New(k, l, f int) (*Algorithm, error) {
	if k < 2 {
		return nil, fmt.Errorf("multistep: k must be >= 2")
	}
	if l < 1 {
		return nil, fmt.Errorf("multistep: l must be >= 1")
	}
	if f < 0 {
		return nil, fmt.Errorf("multistep: negative redundancy")
	}
	// Base values: 0, 1, -1, 2, -2, … (2k-1 finite values; ∞ is not
	// available in the multivariate affine setting of Section 6).
	base := make([]rat.Rat, 2*k-1)
	base[0] = rat.Zero()
	v := int64(1)
	for i := 1; i < len(base); i += 2 {
		base[i] = rat.FromInt64(v)
		if i+1 < len(base) {
			base[i+1] = rat.FromInt64(-v)
		}
		v++
	}
	pts := points.TensorPoints(base, l)
	if f > 0 {
		extra, err := points.FindRedundant(pts, 2*k-1, l, f, 16)
		if err != nil {
			return nil, fmt.Errorf("multistep: redundant point search: %w", err)
		}
		pts = append(pts, extra...)
	}
	um := points.MultiEvalMatrix(pts, k, l)
	u, err := toom.IntRows(um)
	if err != nil {
		return nil, fmt.Errorf("multistep: evaluation matrix not integral: %w", err)
	}
	balg, err := toom.New(k)
	if err != nil {
		return nil, err
	}
	return &Algorithm{K: k, L: l, F: f, pts: pts, u: u, base: balg, wCache: map[string]cachedW{}}, nil
}

// Points returns the evaluation points (copy).
func (alg *Algorithm) Points() []points.MultiPoint {
	return append([]points.MultiPoint(nil), alg.pts...)
}

// NumProducts returns the pointwise product count (2k-1)^l + f.
func (alg *Algorithm) NumProducts() int { return len(alg.pts) }

// Need returns the number of products interpolation requires: (2k-1)^l.
func (alg *Algorithm) Need() int { return len(alg.pts) - alg.F }

// ProcessorsPerFault returns the paper's Figure 3 claim: with l merged
// steps on P processors, each tolerated fault costs P/(2k-1)^l additional
// processors (down to f total when l = log_{2k-1} P).
func ProcessorsPerFault(p, k, l int) int {
	d := 1
	for i := 0; i < l; i++ {
		d *= 2*k - 1
	}
	return p / d
}

// Mul multiplies via the merged step with no erasures.
func (alg *Algorithm) Mul(a, b bigint.Int) (bigint.Int, error) {
	return alg.MulWithErasures(a, b, nil)
}

// MulWithErasures multiplies while discarding the pointwise products listed
// in dead (product indices, at most F of them) — the multiplication-phase
// fault model. The interpolation matrix is built on the fly from the
// surviving points, exactly as in Section 4.2.
func (alg *Algorithm) MulWithErasures(a, b bigint.Int, dead []int) (bigint.Int, error) {
	if len(dead) > alg.F {
		return bigint.Int{}, fmt.Errorf("multistep: %d erasures exceed tolerance f=%d", len(dead), alg.F)
	}
	deadSet := map[int]bool{}
	for _, d := range dead {
		if d < 0 || d >= len(alg.pts) {
			return bigint.Int{}, fmt.Errorf("multistep: erasure index %d out of range", d)
		}
		if deadSet[d] {
			return bigint.Int{}, fmt.Errorf("multistep: repeated erasure index %d", d)
		}
		deadSet[d] = true
	}

	neg := a.Sign()*b.Sign() < 0
	a, b = a.Abs(), b.Abs()
	if a.IsZero() || b.IsZero() {
		return bigint.Zero(), nil
	}
	kl := pow(alg.K, alg.L)
	maxBits := a.BitLen()
	if b.BitLen() > maxBits {
		maxBits = b.BitLen()
	}
	shift := (maxBits + kl - 1) / kl
	da := toom.SplitDigits(a, kl, shift)
	db := toom.SplitDigits(b, kl, shift)

	// Evaluation at all (2k-1)^l + f points.
	ea := toom.ApplyRows(alg.u, da)
	eb := toom.ApplyRows(alg.u, db)

	// Pointwise products — skipping the erased ones entirely, as the
	// halted columns of Figure 3 would.
	prods := make([]bigint.Int, len(alg.pts))
	for i := range prods {
		if deadSet[i] {
			continue
		}
		prods[i] = alg.base.Mul(ea[i], eb[i])
	}

	// On-the-fly interpolation from the first Need() survivors.
	surv := make([]int, 0, alg.Need())
	for i := 0; i < len(alg.pts) && len(surv) < alg.Need(); i++ {
		if !deadSet[i] {
			surv = append(surv, i)
		}
	}
	w, err := alg.interpFor(surv)
	if err != nil {
		return bigint.Int{}, err
	}
	sel := make([]bigint.Int, len(surv))
	for i, idx := range surv {
		sel[i] = prods[idx]
	}
	coeffs := toom.ApplyRows(w.rows, sel)
	for i := range coeffs {
		coeffs[i] = coeffs[i].DivExactInt64(w.den)
	}

	// Recompose the multivariate product polynomial at the base tower
	// (Claim 2.1's variable assignment y_j = 2^{shift·k^{l-j}}).
	z := toom.RecomposeTower(coeffs, alg.K, alg.L, shift)
	if neg {
		z = z.Neg()
	}
	return z, nil
}

// interpFor builds (and caches) the scaled interpolation matrix for a
// surviving product subset: the inverse of the product-width evaluation
// matrix restricted to those points, which the (2k-1, l)-general position
// of the point set guarantees to exist (Claim 6.1).
func (alg *Algorithm) interpFor(surv []int) (cachedW, error) {
	key := fmt.Sprint(surv)
	if w, ok := alg.wCache[key]; ok {
		return w, nil
	}
	pts := make([]points.MultiPoint, len(surv))
	for i, idx := range surv {
		pts[i] = alg.pts[idx]
	}
	e := points.MultiEvalMatrix(pts, 2*alg.K-1, alg.L)
	inv, err := e.Inverse()
	if err != nil {
		return cachedW{}, fmt.Errorf("multistep: surviving set not invertible (general position violated?): %w", err)
	}
	rows, den, err := toom.ScaledRows(inv)
	if err != nil {
		return cachedW{}, err
	}
	w := cachedW{rows: rows, den: den}
	alg.wCache[key] = w
	return w, nil
}

// GeneralPosition verifies the extended point set is in (2k-1, l)-general
// position (exponential check; intended for tests and setup validation).
func (alg *Algorithm) GeneralPosition() bool {
	return points.InGeneralPosition(alg.pts, 2*alg.K-1, alg.L)
}

func pow(b, e int) int {
	out := 1
	for i := 0; i < e; i++ {
		out *= b
	}
	return out
}

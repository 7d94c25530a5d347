// Package softfault adapts the paper's polynomial coding to *soft* faults —
// processors that miscalculate rather than stop (the adaptation Section 7
// says the algorithm "can easily" support).
//
// The observation: the 2k-1+f pointwise products of the fault-tolerant
// algorithm are evaluations of the degree-(2k-2) product polynomial at
// 2k-1+f distinct points — a Reed-Solomon codeword of the coefficient
// vector, with f redundancy symbols. Hard faults are erasures (Section 4.2
// handles them by dropping the dead column); soft faults are *errors* at
// unknown positions, and classical decoding applies:
//
//   - up to f corrupted products are DETECTED (code distance f+1);
//   - up to ⌊f/2⌋ corrupted products are CORRECTED and localized, using the
//     Berlekamp-Welch algorithm over exact rationals.
//
// The corrector works over finite evaluation points (the affine
// Berlekamp-Welch formulation); the standard set without ∞ remains valid by
// the interpolation theorem (Theorem 2.1).
package softfault

import (
	"fmt"

	"repro/internal/bigint"
	"repro/internal/mat"
	"repro/internal/points"
	"repro/internal/rat"
	"repro/internal/toom"
)

// Corrector verifies and repairs the pointwise-product vector of a
// Toom-Cook-k multiplication carried out over 2k-1+f redundant evaluation
// points.
type Corrector struct {
	K, F int
	pts  []points.Point // finite, pairwise distinct
	xs   []rat.Rat      // affine coordinates
	u    [][]int64      // (2k-1+f)×k evaluation matrix
}

// New builds a corrector for Toom-Cook-k with f redundant products, over
// the finite standard points 0, 1, -1, 2, -2, ….
func New(k, f int) (*Corrector, error) {
	if k < 2 {
		return nil, fmt.Errorf("softfault: k must be >= 2")
	}
	if f < 0 {
		return nil, fmt.Errorf("softfault: negative redundancy")
	}
	n := 2*k - 1 + f
	pts := make([]points.Point, n)
	xs := make([]rat.Rat, n)
	pts[0] = points.FiniteInt64(0)
	xs[0] = rat.Zero()
	v := int64(1)
	for i := 1; i < n; i += 2 {
		pts[i] = points.FiniteInt64(v)
		xs[i] = rat.FromInt64(v)
		if i+1 < n {
			pts[i+1] = points.FiniteInt64(-v)
			xs[i+1] = rat.FromInt64(-v)
		}
		v++
	}
	if err := points.Valid(pts, 2*k-1); err != nil {
		return nil, err
	}
	u, err := toom.IntRows(points.EvalMatrix(pts, k))
	if err != nil {
		return nil, err
	}
	return &Corrector{K: k, F: f, pts: pts, xs: xs, u: u}, nil
}

// Products computes the 2k-1+f pointwise products of one Toom-Cook step for
// digit vectors da, db (length k each) — the values a soft-faulty machine
// would hand back, before any corruption.
func (c *Corrector) Products(da, db []bigint.Int) []bigint.Int {
	ea := toom.ApplyRows(c.u, da)
	eb := toom.ApplyRows(c.u, db)
	out := make([]bigint.Int, len(ea))
	for i := range ea {
		out[i] = ea[i].Mul(eb[i])
	}
	return out
}

// Verify reports whether vals is a consistent evaluation vector: the
// interpolation from the first 2k-1 values must reproduce every redundant
// value. Any ≤ f corruptions are guaranteed to be caught (distance f+1);
// it never produces false alarms on clean vectors.
func (c *Corrector) Verify(vals []bigint.Int) (bool, error) {
	coeffs, err := c.interpolatePrefix(vals)
	if err != nil {
		return false, err
	}
	return c.consistent(coeffs, vals), nil
}

// interpolatePrefix interpolates the coefficient vector from the first
// 2k-1 values (which may be corrupted; callers cross-check).
func (c *Corrector) interpolatePrefix(vals []bigint.Int) ([]rat.Rat, error) {
	d := 2*c.K - 1
	if len(vals) != len(c.pts) {
		return nil, fmt.Errorf("softfault: want %d values, got %d", len(c.pts), len(vals))
	}
	wt, err := points.Interpolation(c.pts[:d], d)
	if err != nil {
		return nil, err
	}
	return wt.ApplyInt(vals[:d]), nil
}

// consistent checks coeffs against every evaluation in vals.
func (c *Corrector) consistent(coeffs []rat.Rat, vals []bigint.Int) bool {
	for i, x := range c.xs {
		acc := rat.Zero()
		for j := len(coeffs) - 1; j >= 0; j-- {
			acc = acc.Mul(x).Add(coeffs[j])
		}
		if !acc.Equal(rat.FromInt(vals[i])) {
			return false
		}
	}
	return true
}

// Correct recovers the true coefficient vector from vals with up to ⌊f/2⌋
// arbitrary corruptions, via Berlekamp-Welch: find polynomials Q (degree ≤
// d+e) and E (degree ≤ e, E ≠ 0) with Q(x_i) = vals_i·E(x_i) for all i;
// then the product polynomial is Q/E. It returns the corrected integer
// coefficients and the indices of the corrupted values, or an error if the
// corruption exceeds the correction radius (detected, not mis-corrected).
func (c *Corrector) Correct(vals []bigint.Int) ([]bigint.Int, []int, error) {
	if len(vals) != len(c.pts) {
		return nil, nil, fmt.Errorf("softfault: want %d values, got %d", len(c.pts), len(vals))
	}
	d := 2*c.K - 2 // product polynomial degree
	e := c.F / 2   // correction radius

	// Fast path: already consistent.
	if coeffs, err := c.interpolatePrefix(vals); err == nil && c.consistent(coeffs, vals) {
		return ratsToInts(coeffs)
	}
	if e == 0 {
		return nil, nil, fmt.Errorf("softfault: corruption detected; f=%d provides detection only (correction needs f >= 2)", c.F)
	}

	// Berlekamp-Welch linear system over ℚ.
	nQ := d + e + 1
	nE := e + 1
	n := len(vals)
	a := mat.New(n, nQ+nE)
	for i := 0; i < n; i++ {
		x := c.xs[i]
		pow := rat.One()
		for j := 0; j < nQ; j++ {
			a.Set(i, j, pow)
			pow = pow.Mul(x)
		}
		v := rat.FromInt(vals[i])
		pow = rat.One()
		for t := 0; t < nE; t++ {
			a.Set(i, nQ+t, v.Mul(pow).Neg())
			pow = pow.Mul(x)
		}
	}
	basis := a.Nullspace()
	if len(basis) == 0 {
		return nil, nil, fmt.Errorf("softfault: no Berlekamp-Welch solution — corruption beyond ⌊f/2⌋ = %d errors", e)
	}
	for _, sol := range basis {
		q := sol[:nQ]
		ev := sol[nQ:]
		if allZero(ev) {
			continue
		}
		coeffs, ok := polyDivExact(q, ev, d)
		if !ok {
			continue
		}
		if !c.consistentWithin(coeffs, vals, e) {
			continue
		}
		// Locate errors: positions where the corrected polynomial disagrees.
		var bad []int
		for i, x := range c.xs {
			if !evalRat(coeffs, x).Equal(rat.FromInt(vals[i])) {
				bad = append(bad, i)
			}
		}
		if len(bad) > e {
			continue
		}
		ints, idx, err := ratsToInts(coeffs)
		if err != nil {
			continue
		}
		_ = idx
		return ints, bad, nil
	}
	return nil, nil, fmt.Errorf("softfault: corruption detected but uncorrectable (more than ⌊f/2⌋ = %d errors)", e)
}

// MulWithSoftFaults runs one verified Toom-Cook step end to end: split,
// evaluate, multiply pointwise, apply the given corruptions (index → value
// *added* to the product, modeling a miscalculating processor), correct,
// and recompose. Returns the exact product and the corrupted indices found.
func (c *Corrector) MulWithSoftFaults(a, b bigint.Int, corrupt map[int]bigint.Int) (bigint.Int, []int, error) {
	neg := a.Sign()*b.Sign() < 0
	a, b = a.Abs(), b.Abs()
	if a.IsZero() || b.IsZero() {
		return bigint.Zero(), nil, nil
	}
	maxBits := a.BitLen()
	if b.BitLen() > maxBits {
		maxBits = b.BitLen()
	}
	shift := (maxBits + c.K - 1) / c.K
	vals := c.Products(toom.SplitDigits(a, c.K, shift), toom.SplitDigits(b, c.K, shift))
	for idx, delta := range corrupt {
		if idx < 0 || idx >= len(vals) {
			return bigint.Int{}, nil, fmt.Errorf("softfault: corruption index %d out of range", idx)
		}
		vals[idx] = vals[idx].Add(delta)
	}
	coeffs, bad, err := c.Correct(vals)
	if err != nil {
		return bigint.Int{}, nil, err
	}
	z := toom.Recompose(coeffs, shift)
	if neg {
		z = z.Neg()
	}
	return z, bad, nil
}

// consistentWithin checks coeffs against vals allowing at most e mismatches.
func (c *Corrector) consistentWithin(coeffs []rat.Rat, vals []bigint.Int, e int) bool {
	mismatches := 0
	for i, x := range c.xs {
		if !evalRat(coeffs, x).Equal(rat.FromInt(vals[i])) {
			mismatches++
			if mismatches > e {
				return false
			}
		}
	}
	return true
}

func evalRat(coeffs []rat.Rat, x rat.Rat) rat.Rat {
	acc := rat.Zero()
	for j := len(coeffs) - 1; j >= 0; j-- {
		acc = acc.Mul(x).Add(coeffs[j])
	}
	return acc
}

// polyDivExact divides q by ev over ℚ, returning the quotient's first d+1
// coefficients if the division is exact and the quotient has degree ≤ d.
func polyDivExact(q, ev []rat.Rat, d int) ([]rat.Rat, bool) {
	qq := trim(q)
	ee := trim(ev)
	if len(ee) == 0 {
		return nil, false
	}
	if len(qq) == 0 {
		// Q ≡ 0 means the product polynomial is 0 — legal for zero inputs.
		return make([]rat.Rat, d+1), true
	}
	if len(qq) < len(ee) {
		return nil, false
	}
	quot := make([]rat.Rat, len(qq)-len(ee)+1)
	rem := append([]rat.Rat(nil), qq...)
	lead := ee[len(ee)-1]
	for i := len(quot) - 1; i >= 0; i-- {
		cidx := i + len(ee) - 1
		cval := rem[cidx].Div(lead)
		quot[i] = cval
		if cval.IsZero() {
			continue
		}
		for j := 0; j < len(ee); j++ {
			rem[i+j] = rem[i+j].Sub(cval.Mul(ee[j]))
		}
	}
	for _, r := range rem {
		if !r.IsZero() {
			return nil, false
		}
	}
	if len(quot) > d+1 {
		for _, v := range quot[d+1:] {
			if !v.IsZero() {
				return nil, false
			}
		}
		quot = quot[:d+1]
	}
	out := make([]rat.Rat, d+1)
	copy(out, quot)
	return out, true
}

func trim(v []rat.Rat) []rat.Rat {
	n := len(v)
	for n > 0 && v[n-1].IsZero() {
		n--
	}
	return v[:n]
}

func allZero(v []rat.Rat) bool {
	for _, x := range v {
		if !x.IsZero() {
			return false
		}
	}
	return true
}

func ratsToInts(coeffs []rat.Rat) ([]bigint.Int, []int, error) {
	out := make([]bigint.Int, len(coeffs))
	for i, v := range coeffs {
		if !v.IsInt() {
			return nil, nil, fmt.Errorf("softfault: non-integral coefficient %d", i)
		}
		out[i] = v.Int()
	}
	return out, nil, nil
}

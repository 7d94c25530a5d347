package toom

import (
	"fmt"

	"repro/internal/bigint"
	"repro/internal/points"
)

// UnbalancedAlgorithm is a Toom-Cook-(k1, k2) multiplier (Section 1.1 of
// the paper; Toom-Cook-(3,2) is the "Toom-2.5" of Zanoni): the first
// operand splits into k1 digits and the second into k2, giving a product
// polynomial of degree k1+k2-2 evaluated at k1+k2-1 points. Unbalanced
// splits avoid padding when the operands' sizes differ by a known ratio
// (e.g. a 3:2 ratio multiplies with 4 pointwise products instead of
// Toom-3's 5).
//
// Pointwise sub-products are delegated to a balanced Algorithm, the usual
// arrangement in practice (one unbalanced top layer over a balanced
// recursion).
type UnbalancedAlgorithm struct {
	k1, k2 int
	pts    []points.Point
	u      [][]int64 // n×k1 evaluation matrix for the first operand
	v      [][]int64 // n×k2 evaluation matrix for the second operand
	wNum   [][]int64
	wDen   int64
	inner  *Algorithm
}

// NewUnbalanced builds a Toom-Cook-(k1, k2) algorithm over the standard
// points, delegating sub-products to inner (Karatsuba if nil). Requires
// k1 >= k2 >= 1 and k1 >= 2.
func NewUnbalanced(k1, k2 int, inner *Algorithm) (*UnbalancedAlgorithm, error) {
	if k2 < 1 || k1 < k2 || k1 < 2 {
		return nil, fmt.Errorf("toom: unbalanced split needs k1 >= max(k2, 2), k2 >= 1; got (%d, %d)", k1, k2)
	}
	if inner == nil {
		var err error
		inner, err = New(2)
		if err != nil {
			return nil, err
		}
	}
	n := k1 + k2 - 1
	pts := points.Standard(n)
	if err := points.Valid(pts, n); err != nil {
		return nil, err
	}
	u, err := intMatrix(points.EvalMatrix(pts, k1))
	if err != nil {
		return nil, fmt.Errorf("toom: unbalanced U: %w", err)
	}
	v, err := intMatrix(points.EvalMatrix(pts, k2))
	if err != nil {
		return nil, fmt.Errorf("toom: unbalanced V: %w", err)
	}
	wt, err := points.Interpolation(pts, n)
	if err != nil {
		return nil, err
	}
	wNum, wDen, err := scaledIntMatrix(wt)
	if err != nil {
		return nil, err
	}
	return &UnbalancedAlgorithm{k1: k1, k2: k2, pts: pts, u: u, v: v, wNum: wNum, wDen: wDen, inner: inner}, nil
}

// K1 and K2 return the split numbers.
func (alg *UnbalancedAlgorithm) K1() int { return alg.k1 }

// K2 returns the second operand's split number.
func (alg *UnbalancedAlgorithm) K2() int { return alg.k2 }

// NumProducts returns the pointwise product count k1+k2-1.
func (alg *UnbalancedAlgorithm) NumProducts() int { return alg.k1 + alg.k2 - 1 }

// Mul returns a·b via one unbalanced split followed by balanced recursion
// on the pointwise products. The split base is chosen so that |a| needs k1
// digits and |b| needs k2 — most effective when |a|/|b| ≈ k1/k2. The top
// level runs on frame 0 of a pooled workspace and the inner recursion on
// the frames below it.
func (alg *UnbalancedAlgorithm) Mul(a, b bigint.Int) bigint.Int {
	if a.IsZero() || b.IsZero() {
		return bigint.Zero()
	}
	shift := (a.BitLen() + alg.k1 - 1) / alg.k1
	if s2 := (b.BitLen() + alg.k2 - 1) / alg.k2; s2 > shift {
		shift = s2
	}
	if shift < 1 {
		shift = 1
	}
	ws := getWorkspace()
	defer putWorkspace(ws)
	x, y := &ws.in[0], &ws.in[1]
	x.SetInt(a)
	y.SetInt(b)
	n := alg.NumProducts()
	f := ws.frame(0, alg.k1)
	da, db := f.da[:alg.k1], f.db[:alg.k2]
	ea, eb, prods, coeffs := f.ea[:n], f.eb[:n], f.prods[:n], f.coeffs[:n]
	for i := range da {
		da[i].SetBits(x, i*shift, shift)
	}
	for i := range db {
		db[i].SetBits(y, i*shift, shift)
	}
	applyRows(alg.u, da, ea)
	applyRows(alg.v, db, eb)
	for i := range prods {
		alg.inner.mul(ws, 1, &prods[i], &ea[i], &eb[i], nil)
	}
	for i, row := range alg.wNum {
		applyRowScaled(row, prods, alg.wDen, &coeffs[i], nil)
	}
	ws.out.Reset()
	for i := range coeffs {
		ws.out.AddShl(&coeffs[i], uint(i*shift))
	}
	if a.Sign()*b.Sign() < 0 {
		ws.out.Neg()
	}
	return ws.out.Value()
}

// applyRows writes rows·x into out.
func applyRows(rows [][]int64, x, out []bigint.Acc) {
	for i, row := range rows {
		combine(&out[i], row, x)
	}
}

package toom

import (
	"fmt"

	"repro/internal/bigint"
)

// MulLazy multiplies a·b using Toom-Cook-k with Lazy Interpolation
// (Algorithm 2, after Bermudo Mera et al.): the inputs are split into k^l
// digits once, up front, in a shared base; every recursive level applies the
// evaluation matrix block-wise; carry propagation is postponed to a single
// recomposition at the end. depth l must be >= 1.
//
// By Claim 2.1 this computes a product of two l-variable polynomials in
// Poly_{k,l}; the block-wise structure is exactly what the parallel BFS
// steps distribute, which is why the parallel engine in internal/parallel
// calls the same block primitives.
func (alg *Algorithm) MulLazy(a, b bigint.Int, depth int) (bigint.Int, error) {
	return alg.MulLazyWithStats(a, b, depth, nil)
}

// MulLazyWithStats is MulLazy with operation counting; stats may be nil.
func (alg *Algorithm) MulLazyWithStats(a, b bigint.Int, depth int, stats *Stats) (bigint.Int, error) {
	if depth < 1 {
		return bigint.Int{}, fmt.Errorf("toom: lazy interpolation needs depth >= 1, got %d", depth)
	}
	neg := a.Sign()*b.Sign() < 0
	a, b = a.Abs(), b.Abs()
	if a.IsZero() || b.IsZero() {
		return bigint.Zero(), nil
	}
	maxBits := a.BitLen()
	if b.BitLen() > maxBits {
		maxBits = b.BitLen()
	}
	numDigits := 1
	for i := 0; i < depth; i++ {
		numDigits *= alg.k
		if numDigits > maxBits {
			return bigint.Int{}, fmt.Errorf("toom: depth %d splits %d-bit operands into more digits (%d) than bits", depth, maxBits, numDigits)
		}
	}
	// One shared base for the entire recursion (Algorithm 2, line 4).
	shift := (maxBits + numDigits - 1) / numDigits

	da := splitDigitVector(a, numDigits, shift)
	db := splitDigitVector(b, numDigits, shift)

	coeffs := alg.lazyRecurse(da, db, depth, stats)

	// Postponed carry computation: coefficients are indexed by base-(2k-1)
	// tuples; coefficient at tuple e contributes at bit offset
	// shift·Σ e_i·k^{l-1-i}.
	z := recomposeTower(coeffs, alg.k, 2*alg.k-1, depth, shift)
	if neg {
		z = z.Neg()
	}
	return z, nil
}

// lazyRecurse multiplies two digit block-vectors of length k^depth,
// returning the (2k-1)^depth product coefficients.
func (alg *Algorithm) lazyRecurse(da, db []bigint.Int, depth int, stats *Stats) []bigint.Int {
	if depth == 0 {
		// Scalar leaf: a single pointwise product (Algorithm 2, line 12);
		// the scalars here are digit-sized, i.e. "hardware" operations.
		if stats != nil {
			stats.BaseMuls++
			stats.chargeWords(da[0].Words() * db[0].Words())
		}
		return []bigint.Int{da[0].Mul(db[0])}
	}
	if stats != nil {
		stats.RecursiveCalls++
	}
	k := alg.k
	blockLen := len(da) / k

	// View the digit vector as k blocks and evaluate block-wise (line 6).
	ea := ApplyRowsToBlocks(alg.u, toBlocks(da, k, blockLen))
	eb := ApplyRowsToBlocks(alg.u, toBlocks(db, k, blockLen))
	if stats != nil {
		stats.Evaluations += 2
		stats.chargeWords(blocksWork(alg.u, da, k, blockLen) + blocksWork(alg.u, db, k, blockLen))
	}

	// Recurse on each of the 2k-1 evaluated block pairs (lines 8-14).
	prodBlocks := make([][]bigint.Int, 2*k-1)
	for i := 0; i < 2*k-1; i++ {
		prodBlocks[i] = alg.lazyRecurse(ea[i], eb[i], depth-1, stats)
	}

	// Interpolate block-wise (line 15): c̄ = W^T·c'.
	out := ApplyRowsToBlocks(alg.wNum, prodBlocks)
	if stats != nil {
		stats.Interpolations++
		var w int64
		for _, blk := range prodBlocks {
			for _, v := range blk {
				w += 2 * v.Words()
			}
		}
		stats.chargeWords(w * int64(2*k-1)) // each product feeds 2k-1 rows
	}
	flat := make([]bigint.Int, 0, len(out)*len(out[0]))
	for _, blk := range out {
		for _, v := range blk {
			if stats != nil {
				stats.chargeWords(v.Words())
			}
			flat = append(flat, v.DivExactInt64(alg.wDen))
		}
	}
	return flat
}

// blocksWork estimates the word cost of a block-wise matrix application.
func blocksWork(rows [][]int64, vec []bigint.Int, k, blockLen int) int64 {
	var w int64
	for _, v := range vec {
		w += 2 * v.Words()
	}
	// Each of the k blocks feeds 2k-1 output rows.
	return w * int64(len(rows)) / int64(k)
}

// toBlocks slices v into n consecutive blocks of blockLen.
func toBlocks(v []bigint.Int, n, blockLen int) [][]bigint.Int {
	if len(v) != n*blockLen {
		panic("toom: toBlocks size mismatch")
	}
	blocks := make([][]bigint.Int, n)
	for i := range blocks {
		blocks[i] = v[i*blockLen : (i+1)*blockLen]
	}
	return blocks
}

// splitDigitVector returns the n digits of |a| in base 2^shift.
func splitDigitVector(a bigint.Int, n, shift int) []bigint.Int {
	d := make([]bigint.Int, n)
	for i := 0; i < n; i++ {
		d[i] = a.Extract(i*shift, shift)
	}
	return d
}

// recomposeTower evaluates coefficients indexed by base-r exponent tuples
// (most significant variable first, matching the block recursion) at the
// base tower y_j = 2^{shift·k^{l-1-j}}.
func recomposeTower(coeffs []bigint.Int, k, r, depth, shift int) bigint.Int {
	// weights[j] = bits contributed per unit exponent of variable j.
	weights := make([]int, depth)
	w := 1
	for j := depth - 1; j >= 0; j-- {
		weights[j] = w * shift
		w *= k
	}
	acc := bigint.Zero()
	for idx, c := range coeffs {
		if c.IsZero() {
			continue
		}
		// Decompose idx in base r, most significant digit = variable 0.
		bits := 0
		v := idx
		for j := depth - 1; j >= 0; j-- {
			bits += (v % r) * weights[j]
			v /= r
		}
		acc = acc.Add(c.Shl(uint(bits)))
	}
	return acc
}

package ftmatmul

import "repro/internal/bigint"

// This file keeps the original Int-based tile kernels as test oracles for
// the accumulator kernels: every product and every partial sum is a fresh
// immutable Int, the loops run row by row in (i, k, j) order, and every F
// charge is taken at the same point with the same quantities. The
// count-identity tests require both implementations to return the same
// entries and the same charged work.

func refTileMul(m int, a, b []bigint.Int) ([]bigint.Int, int64) {
	out := make([]bigint.Int, m*m)
	for i := range out {
		out[i] = bigint.Zero()
	}
	var work int64
	for i := 0; i < m; i++ {
		for k := 0; k < m; k++ {
			aik := a[i*m+k]
			if aik.IsZero() {
				continue
			}
			for j := 0; j < m; j++ {
				bkj := b[k*m+j]
				if bkj.IsZero() {
					continue
				}
				work += aik.Words() * bkj.Words()
				out[i*m+j] = out[i*m+j].Add(aik.Mul(bkj))
				work += out[i*m+j].Words()
			}
		}
	}
	return out, work
}

func refComboEval(n int, terms []term, have *[numTiles][]bigint.Int) ([]bigint.Int, int64) {
	if len(terms) == 1 && terms[0].sign == 1 {
		return have[terms[0].tile], 0
	}
	out := make([]bigint.Int, n)
	for i := range out {
		out[i] = bigint.Zero()
	}
	var work int64
	for _, tm := range terms {
		tile := have[tm.tile]
		for i := 0; i < n; i++ {
			v := tile[i]
			if tm.sign < 0 {
				v = v.Neg()
			}
			out[i] = out[i].Add(v)
			work += out[i].Words()
		}
	}
	return out, work
}

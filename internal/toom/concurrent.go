package toom

import (
	"sync"

	"repro/internal/bigint"
	"repro/internal/workpool"
)

// MulConcurrent returns a·b like Mul, but computes the 2k-1 pointwise
// products of the top `depth` recursion levels in parallel — real host
// parallelism, as opposed to the simulated machine of internal/parallel.
// With depth d the recursion exposes up to (2k-1)^d independent leaf
// multiplications; depth 0 is exactly Mul.
//
// Parallelism is bounded by the shared GOMAXPROCS-sized worker pool
// (workpool.Shared, taken once per call): each level submits its
// sub-products to the pool and computes whatever the pool declines inline,
// so deep fan-outs stop spawning (2k-1)^d goroutines while the
// recursion-tree independence the paper's BFS steps distribute is still
// fully exploited.
func (alg *Algorithm) MulConcurrent(a, b bigint.Int, depth int) bigint.Int {
	neg := a.Sign()*b.Sign() < 0
	z := alg.mulAbsConcurrent(workpool.Shared(), a.Abs(), b.Abs(), depth)
	if neg {
		z = z.Neg()
	}
	return z
}

func (alg *Algorithm) mulAbsConcurrent(pool *workpool.Pool, a, b bigint.Int, depth int) bigint.Int {
	if a.IsZero() || b.IsZero() {
		return bigint.Zero()
	}
	maxBits := a.BitLen()
	if b.BitLen() > maxBits {
		maxBits = b.BitLen()
	}
	if depth <= 0 || maxBits <= alg.thresholdBits {
		return alg.Mul(a, b)
	}
	k := alg.k
	shift := (maxBits + k - 1) / k
	da := splitDigits(a, k, shift)
	db := splitDigits(b, k, shift)
	ea := alg.EvalDigits(da, nil)
	eb := alg.EvalDigits(db, nil)

	prods := make([]bigint.Int, 2*k-1)
	var wg sync.WaitGroup
	for i := range prods {
		i := i
		pool.Fork(&wg, func() {
			x, y := ea[i], eb[i]
			n := x.Sign()*y.Sign() < 0
			z := alg.mulAbsConcurrent(pool, x.Abs(), y.Abs(), depth-1)
			if n {
				z = z.Neg()
			}
			prods[i] = z
		})
	}
	wg.Wait()

	coeffs := alg.Interpolate(prods, nil)
	return Recompose(coeffs, shift)
}

package toom

import "repro/internal/bigint"

// Square returns a² via Toom-Cook-k with a single evaluation pass: both
// "operands" share their digit vector and evaluations, halving the
// evaluation work relative to Mul(a, a) (the squaring specialization of
// Zuras's "On squaring and multiplying large integers", cited by the
// paper's Section 1.1).
func (alg *Algorithm) Square(a bigint.Int) bigint.Int {
	return alg.SquareWithStats(a, nil)
}

// SquareWithStats is Square with operation counting; stats may be nil.
func (alg *Algorithm) SquareWithStats(a bigint.Int, stats *Stats) bigint.Int {
	ws := getWorkspace()
	defer putWorkspace(ws)
	x := &ws.in[0]
	x.SetInt(a)
	alg.square(ws, 0, &ws.out, x, stats)
	return ws.out.Value()
}

// square writes x² into dst (dst must not be x), sharing MulWithStats's
// frames and steps.
func (alg *Algorithm) square(ws *workspace, depth int, dst, x *bigint.Acc, stats *Stats) {
	if x.IsZero() {
		dst.Reset()
		return
	}
	maxBits := x.BitLen()
	if maxBits <= alg.thresholdBits {
		if stats != nil {
			stats.BaseMuls++
			stats.chargeWords(x.Words() * x.Words())
		}
		dst.SetMul(x, x)
		return
	}
	if stats != nil {
		stats.RecursiveCalls++
	}
	k := alg.k
	shift := (maxBits + k - 1) / k
	f := ws.frame(depth, k)
	for i := 0; i < k; i++ {
		f.da[i].SetBits(x, i*shift, shift)
	}

	// One evaluation instead of two.
	alg.evalStep(f, f.da, f.ea, f.opA, stats)

	for i := range f.prods {
		alg.square(ws, depth+1, &f.prods[i], f.opA[i], stats)
	}
	alg.interpRecompose(f, dst, shift, stats)
}

package toom

import (
	"math/rand"
	"testing"

	"repro/internal/bigint"
)

// This file keeps the original Int-based Toom-Cook recursion as a test
// oracle for the workspace recursion: every step allocates fresh immutable
// Ints, and every F charge is taken at the same point with the same
// quantities. The count-identity tests require both implementations to
// return the same product and the same five Stats fields.

func (alg *Algorithm) refMulWithStats(a, b bigint.Int, stats *Stats) bigint.Int {
	neg := a.Sign()*b.Sign() < 0
	z := alg.refMulAbs(a.Abs(), b.Abs(), stats)
	if neg {
		z = z.Neg()
	}
	return z
}

func (alg *Algorithm) refMulAbs(a, b bigint.Int, stats *Stats) bigint.Int {
	if a.IsZero() || b.IsZero() {
		return bigint.Zero()
	}
	maxBits := a.BitLen()
	if b.BitLen() > maxBits {
		maxBits = b.BitLen()
	}
	if maxBits <= alg.thresholdBits {
		if stats != nil {
			stats.BaseMuls++
			stats.chargeWords(a.Words() * b.Words())
		}
		return a.Mul(b)
	}
	if stats != nil {
		stats.RecursiveCalls++
	}
	k := alg.k
	shift := (maxBits + k - 1) / k
	ea := alg.refEvalDigits(splitDigits(a, k, shift), stats)
	eb := alg.refEvalDigits(splitDigits(b, k, shift), stats)
	prods := make([]bigint.Int, 2*k-1)
	for i := range prods {
		prods[i] = alg.refMulWithStats(ea[i], eb[i], stats)
	}
	coeffs := alg.refInterpolate(prods, stats)
	if stats != nil {
		for _, c := range coeffs {
			stats.chargeWords(c.Words())
		}
	}
	return Recompose(coeffs, shift)
}

func (alg *Algorithm) refEvalDigits(digits []bigint.Int, stats *Stats) []bigint.Int {
	if stats != nil {
		stats.Evaluations++
	}
	out := make([]bigint.Int, len(alg.u))
	for _, pr := range alg.evalPairs {
		var even, odd bigint.Int
		var work int64
		for m, c := range alg.u[pr.pos] {
			if c == 0 || digits[m].IsZero() {
				continue
			}
			work += 2 * digits[m].Words()
			if m%2 == 0 {
				even = even.Add(digits[m].MulInt64(c))
			} else {
				odd = odd.Add(digits[m].MulInt64(c))
			}
		}
		out[pr.pos] = even.Add(odd)
		out[pr.neg] = even.Sub(odd)
		work += 2 * even.Words()
		stats.chargeWords(work)
	}
	for _, i := range alg.evalSingles {
		var sum bigint.Int
		var work int64
		for m, c := range alg.u[i] {
			if c == 0 || digits[m].IsZero() {
				continue
			}
			sum = sum.Add(digits[m].MulInt64(c))
			work += 2 * digits[m].Words()
		}
		out[i] = sum
		stats.chargeWords(work)
	}
	return out
}

func (alg *Algorithm) refInterpolate(prods []bigint.Int, stats *Stats) []bigint.Int {
	if alg.interpSeq != nil {
		if out, err := alg.interpSeq.Apply(prods); err == nil {
			if stats != nil {
				stats.Interpolations++
				var w int64
				for _, v := range out {
					w += 2 * v.Words()
				}
				stats.chargeWords(w)
			}
			return out
		}
	}
	if stats != nil {
		stats.Interpolations++
		for _, row := range alg.wNum {
			for j, c := range row {
				if c != 0 {
					stats.chargeWords(2 * prods[j].Words())
				}
			}
		}
	}
	out := make([]bigint.Int, len(alg.wNum))
	for i, row := range alg.wNum {
		var sum bigint.Int
		for j, c := range row {
			if c == 0 || prods[j].IsZero() {
				continue
			}
			sum = sum.Add(prods[j].MulInt64(c))
		}
		// The charge reads the accumulator before the exact division.
		stats.chargeWords(sum.Words())
		out[i] = sum.DivExactInt64(alg.wDen)
	}
	return out
}

func (alg *Algorithm) refSquareWithStats(a bigint.Int, stats *Stats) bigint.Int {
	a = a.Abs()
	if a.IsZero() {
		return bigint.Zero()
	}
	maxBits := a.BitLen()
	if maxBits <= alg.thresholdBits {
		if stats != nil {
			stats.BaseMuls++
			stats.chargeWords(a.Words() * a.Words())
		}
		return a.Mul(a)
	}
	if stats != nil {
		stats.RecursiveCalls++
	}
	k := alg.k
	shift := (maxBits + k - 1) / k
	ea := alg.refEvalDigits(splitDigits(a, k, shift), stats)
	prods := make([]bigint.Int, 2*k-1)
	for i := range prods {
		prods[i] = alg.refSquareWithStats(ea[i], stats)
	}
	coeffs := alg.refInterpolate(prods, stats)
	if stats != nil {
		for _, c := range coeffs {
			stats.chargeWords(c.Words())
		}
	}
	return Recompose(coeffs, shift)
}

// TestStepWrappersMatchReference: the exported one-step wrappers (which run
// the recursion's own step routines on a pooled frame) and SquareWithStats
// return what the Int-based reference returns and charge what it charges.
func TestStepWrappersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1204))
	for _, k := range []int{2, 3, 4} {
		for _, alg := range []*Algorithm{MustNew(k).WithThreshold(64), MustNew(k).WithoutEvalReuse()} {
			for trial := 0; trial < 20; trial++ {
				digits := make([]bigint.Int, k)
				for i := range digits {
					digits[i] = randOperand(rng, 700)
					if trial%5 == 0 {
						digits[i] = bigint.Zero()
					}
				}
				var got, want Stats
				ev, ref := alg.EvalDigits(digits, &got), alg.refEvalDigits(digits, &want)
				for i := range ev {
					if !ev[i].Equal(ref[i]) {
						t.Fatalf("k=%d: EvalDigits[%d] differs from the reference", k, i)
					}
				}
				// An exactly interpolable vector: the pointwise products of
				// two evaluated digit vectors.
				eb := alg.EvalDigits(digits, nil)
				prods := make([]bigint.Int, len(ev))
				for i := range prods {
					prods[i] = ev[i].Mul(eb[i])
				}
				co, coRef := alg.Interpolate(prods, &got), alg.refInterpolate(prods, &want)
				for i := range co {
					if !co[i].Equal(coRef[i]) {
						t.Fatalf("k=%d: Interpolate[%d] differs from the reference", k, i)
					}
				}
				a := randOperand(rng, 6000)
				if !alg.SquareWithStats(a, &got).Equal(alg.refSquareWithStats(a, &want)) {
					t.Fatalf("k=%d: SquareWithStats differs from the reference", k)
				}
				if got != want {
					t.Fatalf("k=%d: stats %+v, reference %+v", k, got, want)
				}
			}
		}
	}
}

package bigint

import (
	"math/big"
	"math/rand"
	"testing"
)

// randNat returns a random canonical nat of exactly n limbs (top limb
// nonzero) — or empty for n == 0.
func randNat(rng *rand.Rand, n int) nat {
	if n == 0 {
		return nil
	}
	z := make(nat, n)
	for i := range z {
		z[i] = rng.Uint64()
	}
	for z[n-1] == 0 {
		z[n-1] = rng.Uint64()
	}
	return z
}

func natToBig(x nat) *big.Int {
	return Int{abs: x}.ToBig()
}

// TestNatMulKaratsubaCrossCheck exercises natMul across the schoolbook/
// Karatsuba threshold, balanced and unbalanced, against math/big.
func TestNatMulKaratsubaCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	kt := karatsubaThresholdLimbs()
	sizes := []int{0, 1, 2, 5, kt - 1, kt, kt + 1, 2*kt + 3, 4 * kt, 10*kt + 7}
	for _, nx := range sizes {
		for _, ny := range sizes {
			x := randNat(rng, nx)
			y := randNat(rng, ny)
			got := natToBig(natMul(x, y))
			want := new(big.Int).Mul(natToBig(x), natToBig(y))
			if got.Cmp(want) != 0 {
				t.Fatalf("natMul mismatch at %d×%d limbs", nx, ny)
			}
		}
	}
}

// TestNatMulSparseOperands hits the carry-propagation paths of basicMulTo
// and karatsuba with all-ones and single-bit patterns.
func TestNatMulSparseOperands(t *testing.T) {
	n := 3 * karatsubaThresholdLimbs()
	ones := make(nat, n)
	for i := range ones {
		ones[i] = ^uint64(0)
	}
	single := make(nat, n)
	single[n-1] = 1
	for _, tc := range []struct{ x, y nat }{
		{ones, ones}, {ones, single}, {single, single},
	} {
		got := natToBig(natMul(tc.x, tc.y))
		want := new(big.Int).Mul(natToBig(tc.x), natToBig(tc.y))
		if got.Cmp(want) != 0 {
			t.Fatalf("natMul mismatch on sparse pattern")
		}
	}
}

// TestNatToVariantsAliasing checks the destination-reuse kernels with dst
// aliasing each operand, against math/big.
func TestNatToVariantsAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		nx, ny := rng.Intn(20), rng.Intn(20)
		x, y := randNat(rng, nx), randNat(rng, ny)
		bx, by := natToBig(x), natToBig(y)

		// dst aliases x.
		xc := append(nat(nil), x...)
		got := natAddTo(xc, xc, y)
		if natToBig(got).Cmp(new(big.Int).Add(bx, by)) != 0 {
			t.Fatalf("natAddTo(alias x) mismatch")
		}
		// dst aliases y.
		yc := append(nat(nil), y...)
		got = natAddTo(yc, x, yc)
		if natToBig(got).Cmp(new(big.Int).Add(bx, by)) != 0 {
			t.Fatalf("natAddTo(alias y) mismatch")
		}
		if natCmp(x, y) >= 0 {
			xc = append(nat(nil), x...)
			got = natSubTo(xc, xc, y)
			if natToBig(got).Cmp(new(big.Int).Sub(bx, by)) != 0 {
				t.Fatalf("natSubTo(alias minuend) mismatch")
			}
			yc = append(nat(nil), y...)
			got = natSubTo(yc, x, yc)
			if natToBig(got).Cmp(new(big.Int).Sub(bx, by)) != 0 {
				t.Fatalf("natSubTo(alias subtrahend) mismatch")
			}
		}
		w := rng.Uint64() | 1
		xc = append(nat(nil), x...)
		got = natMulWordTo(xc, xc, w)
		want := new(big.Int).Mul(bx, new(big.Int).SetUint64(w))
		if natToBig(got).Cmp(want) != 0 {
			t.Fatalf("natMulWordTo(alias) mismatch")
		}
		s := uint(rng.Intn(200))
		xc = append(nat(nil), x...)
		got = natShlTo(xc, xc, s)
		if natToBig(got).Cmp(new(big.Int).Lsh(bx, s)) != 0 {
			t.Fatalf("natShlTo(alias) mismatch at s=%d", s)
		}
		if w != 0 {
			xc = append(nat(nil), x...)
			q, r := natDivWordTo(xc, xc, w)
			wantQ, wantR := new(big.Int).QuoRem(bx, new(big.Int).SetUint64(w), new(big.Int))
			if natToBig(q).Cmp(wantQ) != 0 || r != wantR.Uint64() {
				t.Fatalf("natDivWordTo(alias) mismatch")
			}
		}
	}
}

// TestAccRandomOps drives an Acc through random operation sequences and
// cross-checks every intermediate state against math/big.
func TestAccRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 100; iter++ {
		acc := NewAcc()
		oracle := new(big.Int)
		steps := 1 + rng.Intn(30)
		for s := 0; s < steps; s++ {
			switch rng.Intn(5) {
			case 0:
				x := Random(rng, 1+rng.Intn(500))
				if rng.Intn(2) == 0 {
					x = x.Neg()
				}
				acc.Add(x)
				oracle.Add(oracle, x.ToBig())
			case 1:
				x := Random(rng, 1+rng.Intn(500))
				acc.Sub(x)
				oracle.Sub(oracle, x.ToBig())
			case 2:
				x := Random(rng, 1+rng.Intn(500))
				c := rng.Int63n(1000) - 500
				acc.AddMul(x, c)
				oracle.Add(oracle, new(big.Int).Mul(x.ToBig(), big.NewInt(c)))
			case 3:
				sh := uint(rng.Intn(100))
				acc.Shl(sh)
				oracle.Lsh(oracle, sh)
			case 4:
				d := int64(1 + rng.Intn(6))
				if rng.Intn(2) == 0 {
					d = -d
				}
				// Make the value divisible first, then divide exactly.
				acc.Take()
				acc.Reset()
				x := Random(rng, 1+rng.Intn(300))
				acc.AddMul(x, d*7)
				acc.DivExact(d)
				oracle.SetInt64(0)
				oracle.Mul(x.ToBig(), big.NewInt(7))
			}
			if got := acc.Value().ToBig(); got.Cmp(oracle) != 0 {
				t.Fatalf("iter %d step %d: acc=%v oracle=%v", iter, s, got, oracle)
			}
		}
		got := acc.Take()
		if got.ToBig().Cmp(oracle) != 0 {
			t.Fatalf("Take mismatch: %v vs %v", got, oracle)
		}
		if !acc.IsZero() {
			t.Fatalf("Take did not reset the accumulator")
		}
		acc.Release()
	}
}

// TestAccTakeOwnership verifies that a taken Int is never mutated by later
// use of the same (pooled) accumulator — the immutability contract Int
// promises to the machine simulator.
func TestAccTakeOwnership(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	acc := NewAcc()
	x := Random(rng, 1000)
	acc.Add(x)
	taken := acc.Take()
	snapshot := taken.ToBig()
	for i := 0; i < 50; i++ {
		acc.AddMul(Random(rng, 1200), -77)
		acc.Shl(13)
	}
	if taken.ToBig().Cmp(snapshot) != 0 {
		t.Fatalf("Acc mutated a value it had already handed off")
	}
	acc.Release()
}

// TestNatExtractCrossCheck pins the rewritten single-allocation natExtract
// to the reference semantics: bits [lo, lo+width) of x.
func TestNatExtractCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 300; iter++ {
		x := randNat(rng, rng.Intn(12))
		lo := rng.Intn(800)
		width := rng.Intn(300)
		got := natToBig(natExtract(x, lo, width))
		want := new(big.Int).Rsh(natToBig(x), uint(lo))
		mask := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(max(width, 0))), big.NewInt(1))
		want.And(want, mask)
		if got.Cmp(want) != 0 {
			t.Fatalf("natExtract(%d limbs, lo=%d, width=%d) mismatch", len(x), lo, width)
		}
	}
}

// TestAccToAccOps drives the Acc-to-Acc operations the Toom-Cook workspace
// uses (loads, bit-range extraction, sums, scaled and shifted adds,
// products, negation) through random sequences, cross-checking every state
// against math/big. Operands include zero, limb-boundary and aliased cases.
func TestAccToAccOps(t *testing.T) {
	rng := rand.New(rand.NewSource(1207))
	randInt := func() Int {
		switch rng.Intn(6) {
		case 0:
			return Int{}
		case 1:
			return FromInt64(int64(rng.Intn(3)) - 1)
		}
		x := Random(rng, 64*(1+rng.Intn(8))+rng.Intn(3)-1)
		if rng.Intn(2) == 0 {
			x = x.Neg()
		}
		return x
	}
	var a, x, y Acc
	oa := new(big.Int)
	for step := 0; step < 5000; step++ {
		xv, yv := randInt(), randInt()
		x.SetInt(xv)
		y.SetInt(yv)
		bx, by := xv.ToBig(), yv.ToBig()
		switch rng.Intn(12) {
		case 0:
			a.SetInt(xv)
			oa.Set(bx)
		case 1:
			a.AddMulAcc(&x, 1)
			oa.Add(oa, bx)
		case 2:
			a.AddMulAcc(&x, -1)
			oa.Sub(oa, bx)
		case 3:
			c := rng.Int63n(41) - 20
			a.AddMulAcc(&x, c)
			oa.Add(oa, new(big.Int).Mul(bx, big.NewInt(c)))
		case 4:
			s := uint(rng.Intn(300))
			a.AddShl(&x, s)
			oa.Add(oa, new(big.Int).Lsh(bx, s))
		case 5:
			a.SetMul(&x, &y)
			oa.Mul(bx, by)
		case 6:
			a.SetSum(&x, &y)
			oa.Add(bx, by)
		case 7:
			a.SetDiff(&x, &y)
			oa.Sub(bx, by)
		case 8:
			lo, w := rng.Intn(600), rng.Intn(300)
			a.SetBits(&x, lo, w)
			oa.Rsh(new(big.Int).Abs(bx), uint(lo))
			oa.And(oa, new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(w)), big.NewInt(1)))
		case 9:
			a.Neg()
			oa.Neg(oa)
		case 10:
			// Aliased operands: a on both sides.
			a.AddMulAcc(&a, 3)
			oa.Mul(oa, big.NewInt(4))
		case 11:
			a.SetMul(&a, &x)
			oa.Mul(oa, bx)
		}
		if got := a.Value().ToBig(); got.Cmp(oa) != 0 {
			t.Fatalf("step %d: acc=%v oracle=%v", step, got, oa)
		}
		if a.Sign() != oa.Sign() || a.BitLen() != oa.BitLen() {
			t.Fatalf("step %d: sign/bitlen %d/%d, oracle %d/%d", step, a.Sign(), a.BitLen(), oa.Sign(), oa.BitLen())
		}
		if a.BitLen() > 4000 {
			a.Reset()
			oa.SetInt64(0)
		}
	}
}

// TestDivideByUnit pins the |v| = 1 fast paths of Acc.DivExact and
// Int.DivExactInt64: no division runs, and only v = −1 flips the sign.
func TestDivideByUnit(t *testing.T) {
	rng := rand.New(rand.NewSource(1208))
	for _, x := range []Int{{}, FromInt64(-1), Random(rng, 700), Random(rng, 64).Neg()} {
		for _, v := range []int64{1, -1} {
			want := new(big.Int).Quo(x.ToBig(), big.NewInt(v))
			if got := x.DivExactInt64(v).ToBig(); got.Cmp(want) != 0 {
				t.Fatalf("DivExactInt64(%v, %d) = %v, want %v", x, v, got, want)
			}
			var a Acc
			a.SetInt(x)
			a.DivExact(v)
			if got := a.Value().ToBig(); got.Cmp(want) != 0 || a.Sign() != want.Sign() {
				t.Fatalf("Acc.DivExact(%v, %d) = %v, want %v", x, v, got, want)
			}
		}
	}
}

// TestAccAddProd drives AddProd through random dot products — mixed signs,
// zero operands, exact cancellation back to zero, and operands on both
// sides of the Karatsuba rung — cross-checking every partial sum and its
// WordLen against math/big.
func TestAccAddProd(t *testing.T) {
	rng := rand.New(rand.NewSource(1301))
	kara := karatsubaThresholdLimbs()
	randInt := func() Int {
		var x Int
		switch rng.Intn(8) {
		case 0:
			return Int{}
		case 1:
			x = Random(rng, 64*(kara+rng.Intn(kara))+rng.Intn(64))
		default:
			x = Random(rng, 64*(1+rng.Intn(8))+rng.Intn(3)-1)
		}
		if rng.Intn(2) == 0 {
			x = x.Neg()
		}
		return x
	}
	acc := NewAcc()
	defer acc.Release()
	for iter := 0; iter < 200; iter++ {
		acc.Reset()
		oracle := new(big.Int)
		for step := 0; step < 1+rng.Intn(20); step++ {
			x, y := randInt(), randInt()
			if step > 0 && rng.Intn(6) == 0 {
				// Cancel the running sum exactly: add −sum as (−sum)·1.
				x, y = acc.Value().Neg(), FromInt64(1)
			}
			acc.AddProd(x, y)
			oracle.Add(oracle, new(big.Int).Mul(x.ToBig(), y.ToBig()))
			got := acc.Value()
			if got.ToBig().Cmp(oracle) != 0 {
				t.Fatalf("iter %d step %d: acc=%v oracle=%v", iter, step, got, oracle)
			}
			if want := (oracle.BitLen() + 63) / 64; acc.WordLen() != want {
				t.Fatalf("iter %d step %d: WordLen %d, want %d", iter, step, acc.WordLen(), want)
			}
		}
	}
}

// TestAccAppendValue checks that values copied into a shared slab keep
// their value while the slab grows and the accumulator moves on, and that
// a slab reserved up front is never reallocated.
func TestAccAppendValue(t *testing.T) {
	rng := rand.New(rand.NewSource(1302))
	var acc Acc
	slab := make([]uint64, 0, 64)
	base := &slab[:1][0]
	var vals []Int
	var want []*big.Int
	for i := 0; i < 40; i++ {
		acc.Reset()
		if i%5 != 0 { // every fifth value stays zero and takes no limbs
			x := Random(rng, 1+rng.Intn(600))
			if rng.Intn(2) == 0 {
				x = x.Neg()
			}
			acc.Add(x)
		}
		var v Int
		v, slab = acc.AppendValue(slab)
		if got := acc.Value(); v.Cmp(got) != 0 {
			t.Fatalf("value %d: appended %v, accumulator holds %v", i, v, got)
		}
		acc.AddMul(Random(rng, 300), 7) // must not reach the appended copy
		vals = append(vals, v)
		want = append(want, v.ToBig())
		if len(slab) <= 64 && &slab[:1][0] != base {
			t.Fatalf("value %d: slab reallocated within its reserved capacity", i)
		}
	}
	for i, v := range vals {
		if v.ToBig().Cmp(want[i]) != 0 {
			t.Fatalf("value %d changed after later appends: %v, want %v", i, v, want[i])
		}
	}
}

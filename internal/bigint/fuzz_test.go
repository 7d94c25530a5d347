package bigint

import (
	"bytes"
	"math/big"
	"math/rand"
	"testing"
)

// Fuzz targets cross-checking the arena-backed kernel ladder (schoolbook,
// Karatsuba, NTT) against math/big. `go test` runs the seed corpus as
// regression tests; `go test -fuzz=FuzzNatMul ./internal/bigint` explores
// further. Inputs arrive as big-endian byte strings; inflation steps repeat
// them past the live Karatsuba and NTT thresholds (ladder.go) so every rung
// — not just schoolbook — is exercised on each input.

// inflate deterministically stretches b past n bytes by repetition.
func inflate(b []byte, n int) []byte {
	if len(b) == 0 {
		return b
	}
	return bytes.Repeat(b, n/len(b)+1)
}

func FuzzNatMul(f *testing.F) {
	kt := karatsubaThresholdLimbs()
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1}, []byte{0xff})
	f.Add([]byte{0xff, 0xff, 0xff}, []byte{1, 0, 0, 0, 1})
	f.Add(bytes.Repeat([]byte{0xff}, 8*kt), bytes.Repeat([]byte{0xab}, 8*kt))
	f.Add(bytes.Repeat([]byte{0x80, 0}, 5*kt), bytes.Repeat([]byte{1}, 3))
	f.Fuzz(func(t *testing.T, ab, bb []byte) {
		check := func(x, y *big.Int) {
			got := FromBig(x).Mul(FromBig(y)).ToBig()
			want := new(big.Int).Mul(x, y)
			if got.Cmp(want) != 0 {
				t.Fatalf("Mul mismatch: %d-bit × %d-bit", x.BitLen(), y.BitLen())
			}
		}
		x := new(big.Int).SetBytes(ab)
		y := new(big.Int).SetBytes(bb)
		// Small (schoolbook) shapes as given...
		check(x, y)
		// ...inflated past the Karatsuba threshold: balanced and unbalanced,
		// so both karatsuba and the chunked mulTo path run...
		bigLen := 8 * (2*karatsubaThresholdLimbs() + 1)
		xl := new(big.Int).SetBytes(inflate(ab, bigLen))
		yl := new(big.Int).SetBytes(inflate(bb, bigLen))
		check(xl, yl)
		check(xl, y)
		// ...and, with the NTT rung pulled down to a fuzz-friendly size, into
		// the NTT tier: balanced (pure NTT), unbalanced within one transform
		// (len(x) < 2·len(y)), and chunked with NTT-sized blocks. Restoring
		// the ladder keeps the other sub-checks on the production profile.
		prev := CurrentLadder()
		low := prev
		low.NTTLimbs = 4 * low.KaratsubaLimbs
		if err := SetLadder(low); err != nil {
			t.Fatalf("SetLadder: %v", err)
		}
		defer func() {
			if err := SetLadder(prev); err != nil {
				t.Fatalf("restoring ladder: %v", err)
			}
		}()
		nttLen := 8 * (low.NTTLimbs + 1)
		xn := new(big.Int).SetBytes(inflate(ab, nttLen))
		yn := new(big.Int).SetBytes(inflate(bb, nttLen))
		check(xn, yn)
		check(xn, yl)
		xc := new(big.Int).SetBytes(inflate(ab, 3*nttLen))
		check(xc, yn)
	})
}

func FuzzIntArith(f *testing.F) {
	f.Add([]byte{3}, []byte{5}, false, true, int64(7), uint(3))
	f.Add([]byte{0xff, 0xff}, []byte{}, true, false, int64(-12345), uint(70))
	f.Add(bytes.Repeat([]byte{0x5a}, 400), bytes.Repeat([]byte{0xc3}, 399), true, true, int64(1)<<40, uint(129))
	// Four- and five-limb operands: Dot's two kernels, and Acc.AddProd on
	// the ladder at the same shapes.
	f.Add(bytes.Repeat([]byte{0xff}, 32), bytes.Repeat([]byte{0x9e}, 33), false, true, int64(-3), uint(17))
	f.Add(bytes.Repeat([]byte{0xff}, 40), bytes.Repeat([]byte{0xab}, 40), true, false, int64(5), uint(64))
	f.Fuzz(func(t *testing.T, ab, bb []byte, an, bn bool, c int64, s uint) {
		s %= 1024
		x := new(big.Int).SetBytes(ab)
		if an {
			x.Neg(x)
		}
		y := new(big.Int).SetBytes(bb)
		if bn {
			y.Neg(y)
		}
		xi, yi := FromBig(x), FromBig(y)

		if got := xi.Add(yi).ToBig(); got.Cmp(new(big.Int).Add(x, y)) != 0 {
			t.Fatalf("Add mismatch")
		}
		if got := xi.Sub(yi).ToBig(); got.Cmp(new(big.Int).Sub(x, y)) != 0 {
			t.Fatalf("Sub mismatch")
		}
		if got := xi.Mul(yi).ToBig(); got.Cmp(new(big.Int).Mul(x, y)) != 0 {
			t.Fatalf("Mul mismatch")
		}
		if got := xi.MulInt64(c).ToBig(); got.Cmp(new(big.Int).Mul(x, big.NewInt(c))) != 0 {
			t.Fatalf("MulInt64 mismatch")
		}
		if got := xi.Shl(s).ToBig(); got.Cmp(new(big.Int).Lsh(x, s)) != 0 {
			t.Fatalf("Shl mismatch")
		}
		if got := xi.Cmp(yi); got != x.Cmp(y) {
			t.Fatalf("Cmp mismatch")
		}

		// Acc chain: ±x ± y·c, shifted, plus the dot-product step x·y on
		// the ladder — against the same chain in math/big.
		acc := NewAcc()
		defer acc.Release()
		acc.Add(xi)
		acc.AddMul(yi, c)
		acc.Shl(s % 64)
		acc.Sub(xi)
		acc.AddProd(xi, yi)
		sum := acc.Value()
		want := new(big.Int).Add(x, new(big.Int).Mul(y, big.NewInt(c)))
		want.Lsh(want, s%64)
		want.Sub(want, x)
		want.Add(want, new(big.Int).Mul(x, y))
		if got := sum.ToBig(); got.Cmp(want) != 0 {
			t.Fatalf("Acc chain mismatch: got %v want %v", got, want)
		}
		// A step that cancels the running sum exactly: (−sum)·1.
		acc.AddProd(sum.Neg(), One())
		if !acc.IsZero() || acc.Sign() != 0 {
			t.Fatalf("AddProd(−sum, 1) left %v, want 0", acc.Value())
		}

		// Dot chain on x and y cut to their low five limbs, signs kept:
		// x5·y5 + x5·c, its read-out and copy-out, then the same two
		// products negated, which cancel it exactly.
		mask := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 64*maxDotLimbs), big.NewInt(1))
		low := func(v *big.Int) *big.Int {
			l := new(big.Int).And(new(big.Int).Abs(v), mask)
			if v.Sign() < 0 {
				l.Neg(l)
			}
			return l
		}
		x5, y5 := low(x), low(y)
		xd, yd, cd := FromBig(x5), FromBig(y5), FromInt64(c)
		var d Dot
		d.AddProd(xd, yd)
		d.AddProd(xd, cd)
		want = new(big.Int).Mul(x5, new(big.Int).Add(y5, big.NewInt(c)))
		got, _ := d.AppendValue(nil)
		if got.ToBig().Cmp(want) != 0 || d.Words() != int64(max(1, (want.BitLen()+63)/64)) {
			t.Fatalf("Dot chain: %v with Words %d, want %v", got, d.Words(), want)
		}
		d.AddProd(xd.Neg(), yd)
		d.AddProd(cd, xd.Neg())
		if got, _ := d.AppendValue(nil); !got.IsZero() || d.Words() != 1 {
			t.Fatalf("Dot chain cancelled to %v with Words %d, want 0 and 1", got, d.Words())
		}
	})
}

// FuzzToom2Lengths checks the Toom-2 count walk's word-length decisions
// against math/big: w(a·b) of a product and w(x0·y1 + x1·y0) of a node's
// c1, each through the leading-limb interval and, where that cannot
// decide, the exact fallback. The operand lengths are pulled to the
// doubtful ones, bl(x0)+bl(y1) ≡ 1 (mod 64) and bl(x1)+bl(y0) within a
// bit or two of it, unless bias says otherwise; each operand takes one of
// shapedBits' boundary shapes (random, all ones, a single bit, 2^a + 1,
// alternating zero limbs), drawn from seed.
func FuzzToom2Lengths(f *testing.F) {
	f.Add(int64(1), uint16(64), uint16(65), uint16(1), uint16(1), uint8(0))
	f.Add(int64(2), uint16(129), uint16(128), uint16(128), uint16(129), uint8(0))
	f.Add(int64(3), uint16(8200), uint16(8185), uint16(8200), uint16(8121), uint8(0))
	f.Add(int64(4), uint16(300), uint16(77), uint16(5), uint16(900), uint8(1))
	// A c1 whose sum lies within the upper end's outward rounding of 2^M.
	f.Add(int64(104), uint16(8064), uint16(8268), uint16(8214), uint16(8298), uint8(89))
	f.Fuzz(func(t *testing.T, seed int64, n0, n1, n2, n3 uint16, bias uint8) {
		rng := rand.New(rand.NewSource(seed))
		a, b, c, d := int(n0)%9000, int(n1)%9000, int(n2)%9000, int(n3)%9000
		if bias&1 == 0 {
			b += ((1-a-b)%64 + 64) % 64
			d = max(0, a+b-int(bias>>1)%3-c)
		}
		x0, y1 := shapedBits(rng, a, rng.Intn(5)), shapedBits(rng, b, rng.Intn(5))
		x1, y0 := shapedBits(rng, c, rng.Intn(5)), shapedBits(rng, d, rng.Intn(5))
		ar := &arena{}
		want := wordsBig(new(big.Int).Mul(bigOf(x0), bigOf(y1)))
		if got := prodWords(x0, y1, natBitLen(x0), natBitLen(y1), ar); got != want {
			t.Fatalf("%d×%d bits: product words %d, math/big %d", a, b, got, want)
		}
		want = wordsBig(crossBig(x0, x1, y0, y1))
		if got := crossWords(x0, x1, y0, y1, natBitLen(x0), natBitLen(x1), natBitLen(y0), natBitLen(y1), ar); got != want {
			t.Fatalf("%d×%d + %d×%d bits: c1 words %d, math/big %d", a, b, c, d, got, want)
		}
		if ar.off != 0 {
			t.Fatalf("arena left at offset %d, want 0", ar.off)
		}
	})
}

package bigint

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

// randBits returns a random canonical nat of exactly n bits (empty for 0).
func randBits(rng *rand.Rand, n int) nat {
	if n == 0 {
		return nil
	}
	z := randNat(rng, (n+63)/64)
	z[len(z)-1] &= 1<<((n-1)%64+1) - 1
	z[len(z)-1] |= 1 << ((n - 1) % 64)
	return z
}

// TestSetToom2MulProducts checks the kernel's products against math/big on
// signed, zero, unbalanced and limb-boundary operands, and its base-case
// counts, at thresholds from 64 bits to 4,096 (where most of these shapes
// are a single base case). (The charges are pinned against the generic
// recursion in internal/toom.)
func TestSetToom2MulProducts(t *testing.T) {
	rng := rand.New(rand.NewSource(1401))
	sizes := []int{0, 1, 63, 64, 65, 127, 129, 255, 257, 511, 513, 1025, 4097, 16385}
	for _, th := range []int{64, 256, 64 * 64} {
		for _, n := range sizes {
			for _, m := range []int{n, 1 + n/7, n + 191} {
				x := Acc{abs: randBits(rng, n), neg: rng.Intn(2) == 0 && n > 0}
				y := Acc{abs: randBits(rng, m), neg: rng.Intn(2) == 0}
				var z Acc
				c := z.SetToom2Mul(&x, &y, th)
				want := new(big.Int).Mul(x.Value().ToBig(), y.Value().ToBig())
				if z.Value().ToBig().Cmp(want) != 0 {
					t.Fatalf("t%d, %d×%d bits: product differs from math/big", th, n, m)
				}
				if (n == 0 || m == 0) && c != (Toom2Counts{}) {
					t.Fatalf("t%d, zero operand charged %+v", th, c)
				}
				if n > 0 && max(n, m) <= th && c != (Toom2Counts{BaseMuls: 1, WordOps: int64(len(x.abs) * len(y.abs))}) {
					t.Fatalf("t%d, %d×%d bits: base case counted %+v", th, n, m, c)
				}
			}
		}
	}
}

// TestToom2ScratchBound runs the count walk on an arena sized by
// toom2ScratchFor: a heap fallback would allocate, so zero allocations per
// call prove the bound covers every node, at leaf sizes from 15k to 18k
// bits, unbalanced shapes, and thresholds 64 and 256.
func TestToom2ScratchBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1402))
	for _, th := range []int{64, 256} {
		for bits := 15000; bits <= 18000; bits += 250 {
			for _, other := range []int{bits, bits - 97, bits / 3} {
				t.Run(fmt.Sprintf("t%d/%dx%d", th, bits, other), func(t *testing.T) {
					x, y := randBits(rng, bits), randBits(rng, other)
					ar := &arena{}
					ar.ensure(toom2ScratchFor(bits, th))
					var c Toom2Counts
					if got := testing.AllocsPerRun(3, func() { toom2Count(x, y, bits, th, ar, &c) }); got != 0 {
						t.Errorf("%.1f allocations per call, want 0", got)
					}
					if ar.off != 0 {
						t.Errorf("arena left at offset %d, want 0", ar.off)
					}
				})
			}
		}
	}
}

// pow2 returns 2^n + d, canonical.
func pow2(n int, d int64) nat {
	z := new(big.Int).Lsh(big.NewInt(1), uint(n))
	return FromBig(z.Add(z, big.NewInt(d))).abs
}

// shlAdd returns hi·2^s + lo.
func shlAdd(hi nat, s int, lo nat) nat {
	z := new(big.Int).Lsh(bigOf(hi), uint(s))
	return FromBig(z.Add(z, bigOf(lo))).abs
}

// bigOf returns x as a *big.Int.
func bigOf(x nat) *big.Int { return Int{abs: x}.ToBig() }

// wordsBig returns w(v) = max(1, limbs of v) for a nonnegative big.Int.
func wordsBig(v *big.Int) int { return max(1, (v.BitLen()+63)/64) }

// crossBig returns x0·y1 + x1·y0.
func crossBig(x0, x1, y0, y1 nat) *big.Int {
	z := new(big.Int).Mul(bigOf(x0), bigOf(y1))
	return z.Add(z, new(big.Int).Mul(bigOf(x1), bigOf(y0)))
}

// shapedBits returns a canonical nat of exactly n bits (empty for 0) in
// one of the shapes that sit on the word-length boundaries: random, all
// ones (2^n − 1), a single bit (2^(n−1)), 2^(n−1) + 1, and random limbs
// with every odd limb below the top one zero.
func shapedBits(rng *rand.Rand, n int, shape int) nat {
	switch {
	case n == 0:
		return nil
	case n == 1:
		return nat{1}
	}
	switch shape % 5 {
	case 1:
		return pow2(n, -1)
	case 2:
		return pow2(n-1, 0)
	case 3:
		return pow2(n-1, 1)
	case 4:
		z := randBits(rng, n)
		for i := 1; i < len(z)-1; i += 2 {
			z[i] = 0
		}
		return z
	}
	return randBits(rng, n)
}

// TestToom2LengthDecisions checks the walk's product and c1 word lengths
// against math/big at the doubtful lengths: on operands whose leading
// limbs cannot decide, so the exact fallback forms the product in the
// arena, and on doubtful operands they do decide. Each case first checks
// whether the leading limbs decide it.
func TestToom2LengthDecisions(t *testing.T) {
	ar := &arena{}
	for _, c := range []struct {
		name      string
		a, b      nat
		undecided bool
	}{
		// 2^128 − 1: one bit short of the operands' 129 bits.
		{"(2^64-1)(2^64+1)", pow2(64, -1), pow2(64, 1), true},
		// Full length only through the bits below both leading limbs:
		// 2^192 + 2^127 − 2^126 − 2^61.
		{"(2^126+2^61)(2^66-1)", shlAdd(pow2(65, 0), 61, pow2(61, 0)), pow2(66, -1), true},
		// An all-ones digit times a power of two, 2^(a+b) − 2^b.
		{"(2^64-1)·2^64", pow2(64, -1), pow2(64, 0), true},
		{"(2^200-1)·2^312", pow2(200, -1), pow2(312, 0), true},
		// Doubtful lengths the leading limbs decide, full and short.
		{"(2^65-1)(2^64-1)", pow2(65, -1), pow2(64, -1), false},
		{"2^64·2^63", pow2(64, 0), pow2(63, 0), false},
		// Not doubtful: 130 and 128 bits of operands.
		{"(2^64+1)(2^64+1)", pow2(64, 1), pow2(64, 1), false},
		{"(2^64-1)(2^64-1)", pow2(64, -1), pow2(64, -1), false},
	} {
		want := wordsBig(new(big.Int).Mul(bigOf(c.a), bigOf(c.b)))
		if _, ok := leadProdWords(c.a, c.b); ok == c.undecided {
			t.Errorf("%s: leading limbs decided = %v, want %v", c.name, ok, !c.undecided)
		}
		if got := prodWords(c.a, c.b, natBitLen(c.a), natBitLen(c.b), ar); got != want {
			t.Errorf("%s: product words %d, math/big %d", c.name, got, want)
		}
	}
	for _, c := range []struct {
		name           string
		x0, x1, y0, y1 nat
		undecided      bool
	}{
		// (2^64−1)·2^64 + 1 = 2^128 − 2^64 + 1 and (2^64−1)(2^64+1) + 1 =
		// 2^128: the interval of each sum straddles 2^128.
		{"2^128-2^64+1", pow2(64, -1), nat{1}, nat{1}, pow2(64, 0), true},
		{"2^128", pow2(64, -1), nat{1}, nat{1}, pow2(64, 1), true},
		// Two terms of equal length E always reach 2^(E−1).
		{"two 257-bit terms", pow2(128, 1), pow2(127, 0), pow2(128, 0), pow2(127, 1), false},
		// E ≡ 0 (mod 64): 2^190 + 1 stays below 2^192.
		{"2^190+1", pow2(127, 0), nat{1}, nat{1}, pow2(63, 0), false},
	} {
		want := wordsBig(crossBig(c.x0, c.x1, c.y0, c.y1))
		if _, ok := leadCrossWords(c.x0, c.x1, c.y0, c.y1); ok == c.undecided {
			t.Errorf("%s: leading limbs decided = %v, want %v", c.name, ok, !c.undecided)
		}
		if got := crossWords(c.x0, c.x1, c.y0, c.y1, natBitLen(c.x0), natBitLen(c.x1), natBitLen(c.y0), natBitLen(c.y1), ar); got != want {
			t.Errorf("%s: c1 words %d, math/big %d", c.name, got, want)
		}
	}
	if ar.off != 0 {
		t.Errorf("arena left at offset %d, want 0", ar.off)
	}
}

// TestSetToom2MulAllocs pins the kernel's allocation contract at the
// parallel leaf's shape (~16.4 kbit operands, threshold 256): once the
// destination has grown, a call allocates nothing, on random operands and
// on operands whose top node takes both exact fallbacks. The count walk on
// a caller-held arena is checked everywhere; the pooled call is checked
// only without the race detector, which empties sync.Pools at random.
func TestSetToom2MulAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1403))
	const th = 256
	// The top node splits at s = 8200. With x0 = 2^s − 1, y0 = 2^(s−80)
	// and y1 = 2^(s−16), p0 = 2^(2s−80) − 2^(s−80) and c1 = 2^(2s−16) −
	// 2^(s−16) + x1·2^(s−80) sit next to a word boundary their leading
	// limbs cannot place.
	const s = 8200
	x0, x1, y0, y1 := pow2(s, -1), randBits(rng, s), pow2(s-80, 0), pow2(s-16, 0)
	if _, ok := leadProdWords(x0, y0); ok {
		t.Fatal("the leading limbs decide p0; the fallback operands are stale")
	}
	if _, ok := leadCrossWords(x0, x1, y0, y1); ok {
		t.Fatal("the leading limbs decide c1; the fallback operands are stale")
	}
	for _, c := range []struct {
		name string
		x, y nat
	}{
		{"random", randBits(rng, 2*s), randBits(rng, 2*s-10)},
		{"fallback", shlAdd(x1, s, x0), shlAdd(y1, s, y0)},
	} {
		bits := natBitLen(c.x)
		ar := &arena{}
		ar.ensure(toom2ScratchFor(bits, th))
		var n Toom2Counts
		if got := testing.AllocsPerRun(5, func() { toom2Count(c.x, c.y, bits, th, ar, &n) }); got != 0 {
			t.Errorf("%s: count walk allocates %.1f times per call, want 0", c.name, got)
		}
		if raceEnabled {
			continue
		}
		x, y := Acc{abs: c.x}, Acc{abs: c.y, neg: true}
		var z Acc
		z.SetToom2Mul(&x, &y, th) // grow z and warm the arena pool
		if got := testing.AllocsPerRun(20, func() { z.SetToom2Mul(&x, &y, th) }); got != 0 {
			t.Errorf("%s: SetToom2Mul allocates %.1f times per call, want 0", c.name, got)
		}
	}
}

// TestSetToom2MulRejectsAlias pins the documented destination rule.
func TestSetToom2MulRejectsAlias(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SetToom2Mul into its own operand did not panic")
		}
	}()
	x := Acc{abs: nat{3}}
	y := Acc{abs: nat{5}}
	x.SetToom2Mul(&x, &y, 64)
}

// BenchmarkToom2Walk times the count walk alone at the parallel leaf's
// shape (16,400 × 16,390 bits, threshold 256); BenchmarkLeafMulLadder in
// internal/toom times the product SetToom2Mul forms beside it.
func BenchmarkToom2Walk(b *testing.B) {
	rng := rand.New(rand.NewSource(1404))
	x, y := randBits(rng, 16400), randBits(rng, 16390)
	ar := &arena{}
	ar.ensure(toom2ScratchFor(16400, 256))
	var c Toom2Counts
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c = Toom2Counts{}
		toom2Count(x, y, 16400, 256, ar, &c)
	}
	b.ReportMetric(float64(c.Nodes), "nodes")
}

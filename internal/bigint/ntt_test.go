package bigint

import (
	"math/big"
	"math/bits"
	"math/rand"
	"testing"
)

// nttPrimeFactors lists the odd prime factors of p−1 for each nttPrime (the
// 2-part is covered by the valuation check). Used to certify the primitive
// roots: g is primitive iff g^((p−1)/q) ≠ 1 for every prime factor q of p−1.
var nttPrimeFactors = [3][]uint64{
	{29},    // p1 − 1 = 2^57 · 29
	{163},   // p2 − 1 = 2^54 · 163
	{3, 23}, // p3 − 1 = 2^55 · 3 · 23
}

// TestNTTPrimeProperties pins everything the transforms assume about the
// moduli: primality, the 2-adic valuation s (root-of-unity range), the
// p < 2^62 bound the lazy arithmetic needs, primitivity of g, and the
// precomputed Montgomery/Shoup constants.
func TestNTTPrimeProperties(t *testing.T) {
	for i := range nttPrimes {
		pr := &nttPrimes[i]
		p := pr.p

		if p >= 1<<62 {
			t.Errorf("prime %d: p = %d ≥ 2^62, lazy arithmetic bound violated", i, p)
		}
		if !new(big.Int).SetUint64(p).ProbablyPrime(64) {
			t.Errorf("prime %d: %d is not prime", i, p)
		}
		if got := uint(bits.TrailingZeros64(p - 1)); got != pr.s {
			t.Errorf("prime %d: 2-adic valuation of p−1 = %d, field says %d", i, got, pr.s)
		}

		// g is a primitive root: g^((p−1)/2) ≠ 1 and g^((p−1)/q) ≠ 1 for the
		// odd factors q.
		if powMod(pr.g, (p-1)/2, p) == 1 {
			t.Errorf("prime %d: g = %d not primitive (order divides (p−1)/2)", i, pr.g)
		}
		for _, q := range nttPrimeFactors[i] {
			if (p-1)%q != 0 {
				t.Fatalf("prime %d: factor table wrong, %d does not divide p−1", i, q)
			}
			if powMod(pr.g, (p-1)/q, p) == 1 {
				t.Errorf("prime %d: g = %d not primitive (order divides (p−1)/%d)", i, pr.g, q)
			}
		}

		// Root tables: root[i] is below p with order exactly 2^i, the square
		// of root[i+1], and iroot[i] is its inverse.
		for j := uint(0); j <= pr.s; j++ {
			w, iw := pr.root[j], pr.iroot[j]
			if w >= p || iw >= p || mulMod(w, iw, p) != 1 {
				t.Errorf("prime %d: root[%d] = %d, iroot[%d] = %d are not inverses below p", i, j, w, j, iw)
			}
			if j < pr.s && mulMod(pr.root[j+1], pr.root[j+1], p) != w {
				t.Errorf("prime %d: root[%d] is not the square of root[%d]", i, j, j+1)
			}
		}
		if pr.root[0] != 1 || powMod(pr.root[pr.s], 1<<(pr.s-1), p) != p-1 {
			t.Errorf("prime %d: root[%d] is not a primitive 2^%d-th root of unity", i, pr.s, pr.s)
		}

		// Montgomery constants: p·pInv ≡ −1 (mod 2^64) and r = 2^64 mod p.
		if p*pr.pInv != ^uint64(0) {
			t.Errorf("prime %d: pInv is not −p⁻¹ mod 2^64", i)
		}
		if _, rem := bits.Div64(1, 0, p); rem != pr.r {
			t.Errorf("prime %d: r = %d, want 2^64 mod p = %d", i, pr.r, rem)
		}
	}

	// The CRT capacity claim from the nttPrimes doc comment: p1·p2·p3 must
	// exceed m·(2^64−1)² for every supported product length m (up to the
	// 2^54-point transform cap), so reconstruction is exact.
	prod := new(big.Int).SetUint64(nttPrimes[0].p)
	prod.Mul(prod, new(big.Int).SetUint64(nttPrimes[1].p))
	prod.Mul(prod, new(big.Int).SetUint64(nttPrimes[2].p))
	limb := new(big.Int).SetUint64(^uint64(0))
	worst := new(big.Int).Mul(limb, limb)
	worst.Mul(worst, new(big.Int).Lsh(big.NewInt(1), 54))
	if prod.Cmp(worst) <= 0 {
		t.Errorf("p1·p2·p3 = %v does not bound 2^54 coefficients of (2^64−1)²", prod)
	}
}

// rateWalk returns the twiddles that the rate walk (the AtCoder-library
// recurrence the transforms ran before the table) gives blocks 0 … 2^st − 1
// of stage st: block s+1 gets block s's twiddle times rate[ctz(^s)], where
// rate[i] = root[i+2]·Π_{j<i} root[j+2]⁻¹. With the roots swapped for
// their inverses it walks the inverse transform's twiddles.
func rateWalk(root, iroot []uint64, st int, p uint64) []uint64 {
	rate := make([]uint64, st+1)
	prod := uint64(1)
	for i := range rate {
		rate[i] = mulMod(root[i+2], prod, p)
		prod = mulMod(prod, iroot[i+2], p)
	}
	out := make([]uint64, 1<<st)
	rot := uint64(1)
	for s := range out {
		out[s] = rot
		if s+1 < len(out) {
			rot = mulMod(rot, rate[bits.TrailingZeros64(^uint64(s))], p)
		}
	}
	return out
}

// TestNTTTwiddleTable pins each prime's twiddle table up to the largest
// transform the tests run (2^17 points): entry s is the twiddle the rate
// walk gives block s at every stage that has a block s, forward and
// inverse, below p, with its Shoup constant beside it.
func TestNTTTwiddleTable(t *testing.T) {
	const maxLog = 17
	for i := range nttPrimes {
		pr := &nttPrimes[i]
		p := pr.p
		tw := pr.twiddles(1 << maxLog)
		if len(tw.w) < 1<<(maxLog-1) || len(tw.ws) != len(tw.w) || len(tw.iw) != len(tw.w) || len(tw.iws) != len(tw.w) {
			t.Fatalf("prime %d: table lengths %d/%d/%d/%d, want at least %d each", i, len(tw.w), len(tw.ws), len(tw.iw), len(tw.iws), 1<<(maxLog-1))
		}
		for s := range tw.w {
			w, iw := tw.w[s], tw.iw[s]
			if w >= p || iw >= p {
				t.Fatalf("prime %d: entry %d: twiddle %d or inverse %d not below p", i, s, w, iw)
			}
			if tw.ws[s] != shoupOf(w, p) || tw.iws[s] != shoupOf(iw, p) {
				t.Fatalf("prime %d: entry %d: Shoup constants %d/%d, want %d/%d", i, s, tw.ws[s], tw.iws[s], shoupOf(w, p), shoupOf(iw, p))
			}
		}
		for st := 0; st < maxLog; st++ {
			fwd := rateWalk(pr.root, pr.iroot, st, p)
			inv := rateWalk(pr.iroot, pr.root, st, p)
			for s := range fwd {
				if tw.w[s] != fwd[s] || tw.iw[s] != inv[s] {
					t.Fatalf("prime %d: stage %d block %d: table %d/%d, rate walk %d/%d", i, st, s, tw.w[s], tw.iw[s], fwd[s], inv[s])
				}
			}
		}
	}
}

// TestNTTRoundTrip checks forward∘inverse = N·identity for each prime across
// transform sizes, including sizes large enough to hit the parallel block
// splitting when run with a multi-slot pool (TestNTTMulParallel covers that
// wiring; here par is nil so the test isolates the scalar butterflies).
func TestNTTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := range nttPrimes {
		pr := &nttPrimes[i]
		for _, n := range []int{2, 4, 8, 64, 1024, 1 << 14} {
			a := make([]uint64, n)
			orig := make([]uint64, n)
			for j := range a {
				a[j] = rng.Uint64() % pr.p
				orig[j] = a[j]
			}
			tw := pr.twiddles(n)
			pr.forward(a, tw.w, tw.ws, nil)
			pr.inverse(a, tw.iw, tw.iws, nil)
			nModP := uint64(n) % pr.p
			for j := range a {
				got := a[j]
				for got >= pr.p {
					got -= pr.p
				}
				if want := mulMod(orig[j], nModP, pr.p); got != want {
					t.Fatalf("prime %d, N=%d: roundtrip[%d] = %d, want N·x = %d", i, n, j, got, want)
				}
			}
		}
	}
}

// TestNTTShoupRedc cross-checks the two fast multiplication primitives
// against the exact mulMod on random operands, including the lazy-domain
// extremes the butterflies feed them.
func TestNTTShoupRedc(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := range nttPrimes {
		pr := &nttPrimes[i]
		p := pr.p
		for trial := 0; trial < 2000; trial++ {
			x := rng.Uint64() // shoupMul takes any 64-bit x
			w := rng.Uint64() % p
			ws := shoupOf(w, p)
			got := shoupMul(x, w, ws, p)
			if got >= pr.twoP {
				t.Fatalf("prime %d: shoupMul left lazy domain: %d ≥ 2p", i, got)
			}
			if got >= p {
				got -= p
			}
			if want := mulMod(x%p, w, p); got != want {
				t.Fatalf("prime %d: shoupMul(%d, %d) = %d, want %d", i, x, w, got, want)
			}

			a := rng.Uint64() % pr.twoP
			b := rng.Uint64() % pr.twoP
			gotR := redc(a, b, p, pr.pInv)
			if gotR >= pr.twoP {
				t.Fatalf("prime %d: redc left lazy domain: %d ≥ 2p", i, gotR)
			}
			if gotR >= p {
				gotR -= p
			}
			// redc(a,b) = a·b·2^−64; multiply back by r = 2^64 to compare.
			if want := mulMod(a%p, b%p, p); mulMod(gotR, pr.r, p) != want {
				t.Fatalf("prime %d: redc(%d, %d)·R = %d, want %d", i, a, b, mulMod(gotR, pr.r, p), want)
			}
		}
	}
}

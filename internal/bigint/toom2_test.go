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
// signed, zero, unbalanced and limb-boundary operands, at thresholds that
// put the base case on the schoolbook and on the Karatsuba rung. (The
// charges are pinned against the generic recursion in internal/toom.)
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

// TestToom2ScratchBound runs the recursion on an arena sized by
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
					z := make(nat, len(x)+len(y))
					var c Toom2Counts
					if got := testing.AllocsPerRun(3, func() { toom2Mul(z, x, y, th, ar, &c) }); got != 0 {
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

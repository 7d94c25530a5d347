package ftmul

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/bigint"
)

// TestSequentialToomNTTBypass pins the sequential API's Toom → NTT
// dispatch: above the ladder's crossover Mul, MulToom and Square reroute
// to the kernel ladder and must agree with math/big; just below it they
// stay on Toom-Cook (cross-checked the same way). The parallel and
// fault-tolerant entry points have no such bypass — their costs are the
// object of study — which TestTable1/TestTable2 and the crosscheck goldens
// pin separately.
func TestSequentialToomNTTBypass(t *testing.T) {
	threshold := bigint.ToomNTTThresholdBits()
	if threshold <= 0 {
		t.Fatalf("default ladder has the Toom bypass disabled")
	}
	rng := rand.New(rand.NewSource(31))
	randBits := func(bits int) *big.Int {
		raw := make([]byte, bits/8)
		rng.Read(raw)
		raw[0] |= 0x80
		return new(big.Int).SetBytes(raw)
	}

	for _, bits := range []int{threshold - 64, threshold, 2 * threshold} {
		a := randBits(bits)
		b := randBits(bits)
		want := new(big.Int).Mul(a, b)
		if got := Mul(a, b); got.Cmp(want) != 0 {
			t.Errorf("Mul mismatch at %d bits", bits)
		}
		for _, k := range []int{2, 4} {
			got, err := MulToom(a, b, k)
			if err != nil {
				t.Fatalf("MulToom(k=%d): %v", k, err)
			}
			if got.Cmp(want) != 0 {
				t.Errorf("MulToom(k=%d) mismatch at %d bits", k, bits)
			}
		}
		if got := Square(a); got.Cmp(new(big.Int).Mul(a, a)) != 0 {
			t.Errorf("Square mismatch at %d bits", bits)
		}
		neg := new(big.Int).Neg(a)
		if got := Mul(neg, b); got.Cmp(new(big.Int).Neg(want)) != 0 {
			t.Errorf("Mul sign mismatch at %d bits", bits)
		}
	}
}

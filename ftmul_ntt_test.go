package ftmul

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/bigint"
)

// TestSequentialToomNTTBypass sweeps the sequential API against math/big:
// Mul and Square run on the kernel ladder at every size from one word to
// twice the ladder's Toom → NTT crossover, zero and negative operands
// included, and MulToom stays on Toom-Cook just below the crossover and
// reroutes to the ladder at and above it. The parallel and fault-tolerant
// entry points have no such bypass — their costs are the object of study —
// which TestTable1/TestTable2 and the crosscheck goldens pin separately.
func TestSequentialToomNTTBypass(t *testing.T) {
	threshold := bigint.ToomNTTThresholdBits()
	if threshold <= 0 {
		t.Fatalf("default ladder has the Toom bypass disabled")
	}
	rng := rand.New(rand.NewSource(31))
	randBits := func(bits int) *big.Int {
		raw := make([]byte, (bits+7)/8)
		rng.Read(raw)
		v := new(big.Int).SetBytes(raw)
		v.SetBit(v, bits-1, 1)
		return v.Rsh(v, uint(v.BitLen()-bits))
	}

	zero := new(big.Int)
	if Square(zero).Sign() != 0 || Mul(zero, randBits(64)).Sign() != 0 {
		t.Error("a zero operand gives a nonzero product")
	}
	for _, bits := range []int{64, 65, 1000, 1 << 12, 1 << 14, 1 << 16, threshold - 64, threshold, 2 * threshold} {
		a, b := randBits(bits), randBits(bits)
		want := new(big.Int).Mul(a, b)
		if got := Mul(a, b); got.Cmp(want) != 0 {
			t.Errorf("Mul mismatch at %d bits", bits)
		}
		if got := Square(a); got.Cmp(new(big.Int).Mul(a, a)) != 0 {
			t.Errorf("Square mismatch at %d bits", bits)
		}
		neg := new(big.Int).Neg(a)
		if got := Mul(neg, b); got.Cmp(new(big.Int).Neg(want)) != 0 {
			t.Errorf("Mul sign mismatch at %d bits", bits)
		}
		if got := Square(neg); got.Cmp(new(big.Int).Mul(a, a)) != 0 {
			t.Errorf("Square of a negative mismatch at %d bits", bits)
		}
		if bits < threshold-64 {
			continue
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
	}
}

// Polynomial multiplication via Kronecker substitution: Toom-Cook is at
// heart a polynomial multiplication algorithm (the paper's Section 2.2),
// and conversely any integer multiplier multiplies polynomials by packing
// coefficients into an integer with enough headroom per slot.
//
// This example multiplies two random degree-511 polynomials with 32-bit
// coefficients — the shape that appears in lattice-based cryptography,
// where Toom-Cook is widely deployed — and verifies the result against a
// direct convolution.
package main

import (
	"fmt"
	"log"
	"math/big"
	"math/rand"

	"repro"
)

// pack encodes coefficients into an integer with `slot`-bit slots.
func pack(coeffs []uint64, slot uint) *big.Int {
	z := new(big.Int)
	for i := len(coeffs) - 1; i >= 0; i-- {
		z.Lsh(z, slot)
		z.Or(z, new(big.Int).SetUint64(coeffs[i]))
	}
	return z
}

// unpack decodes n slot-bit slots from an integer.
func unpack(v *big.Int, n int, slot uint) []*big.Int {
	mask := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), slot), big.NewInt(1))
	out := make([]*big.Int, n)
	cur := new(big.Int).Set(v)
	for i := 0; i < n; i++ {
		out[i] = new(big.Int).And(cur, mask)
		cur.Rsh(cur, slot)
	}
	return out
}

func main() {
	const (
		deg      = 512 // number of coefficients
		coefBits = 32
	)
	rng := rand.New(rand.NewSource(7))
	a := make([]uint64, deg)
	b := make([]uint64, deg)
	for i := range a {
		a[i] = uint64(rng.Uint32())
		b[i] = uint64(rng.Uint32())
	}

	// Slot width: products of 32-bit coefficients summed over ≤512 terms
	// need 32+32+9 bits; round up generously.
	const slot = 80
	packedA := pack(a, slot)
	packedB := pack(b, slot)
	fmt.Printf("packed operands: %d and %d bits\n", packedA.BitLen(), packedB.BitLen())

	// One big multiplication — the kernel ladder under the hood.
	product := ftmul.Mul(packedA, packedB)
	got := unpack(product, 2*deg-1, slot)

	// Verify against the O(n²) convolution.
	for i := 0; i < 2*deg-1; i++ {
		want := new(big.Int)
		lo := i - deg + 1
		if lo < 0 {
			lo = 0
		}
		for j := lo; j <= i && j < deg; j++ {
			t := new(big.Int).SetUint64(a[j])
			t.Mul(t, new(big.Int).SetUint64(b[i-j]))
			want.Add(want, t)
		}
		if got[i].Cmp(want) != 0 {
			log.Fatalf("coefficient %d mismatch", i)
		}
	}
	fmt.Printf("all %d product coefficients verified against direct convolution\n", 2*deg-1)

	// The same packed product on the simulated cluster with Toom-Cook-3
	// (P = 25 = (2·3-1)²).
	z, rep, err := ftmul.MulParallel(packedA, packedB, 3, ftmul.ClusterConfig{P: 25})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parallel Toom-3 on 25 processors: identical=%v, BW=%d words/proc, L=%d messages\n",
		z.Cmp(product) == 0, rep.BW, rep.L)
}

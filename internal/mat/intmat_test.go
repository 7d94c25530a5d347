package mat

import (
	"math/rand"
	"testing"

	"repro/internal/bigint"
)

func randIntMat(rng *rand.Rand, rows, cols, bits int) *IntMat {
	m := NewIntMat(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			v := bigint.Random(rng, 1+rng.Intn(bits))
			if rng.Intn(2) == 0 {
				v = v.Neg()
			}
			m.Set(i, j, v)
		}
	}
	return m
}

// Ring axioms the matrix algebra must satisfy, checked on random instances
// with both multiplication paths.
func TestIntMatMulAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		r, k, c, d := 1+rng.Intn(7), 1+rng.Intn(7), 1+rng.Intn(7), 1+rng.Intn(7)
		a := randIntMat(rng, r, k, 64)
		b := randIntMat(rng, k, c, 64)
		cc := randIntMat(rng, c, d, 64)
		left := a.MulNaive(b).MulNaive(cc)
		right := a.MulNaive(b.MulNaive(cc))
		if !left.Equal(right) {
			t.Fatalf("trial %d: (A·B)·C != A·(B·C) for %dx%d·%dx%d·%dx%d", trial, r, k, k, c, c, d)
		}
	}
}

func TestIntMatMulDistributive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		r, k, c := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a := randIntMat(rng, r, k, 64)
		b := randIntMat(rng, k, c, 64)
		d := randIntMat(rng, k, c, 64)
		left := a.MulNaive(b.Add(d))
		right := a.MulNaive(b).Add(a.MulNaive(d))
		if !left.Equal(right) {
			t.Fatalf("trial %d: A·(B+C) != A·B + A·C", trial)
		}
	}
}

func TestIntMatIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		r, c := 1+rng.Intn(9), 1+rng.Intn(9)
		a := randIntMat(rng, r, c, 64)
		if !IntIdentity(r).MulNaive(a).Equal(a) {
			t.Fatalf("trial %d: I·A != A", trial)
		}
		if !a.MulNaive(IntIdentity(c)).Equal(a) {
			t.Fatalf("trial %d: A·I != A", trial)
		}
	}
}

func TestIntMatTransposeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		r, k, c := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a := randIntMat(rng, r, k, 64)
		b := randIntMat(rng, k, c, 64)
		if !a.Transpose().Transpose().Equal(a) {
			t.Fatalf("trial %d: (Aᵀ)ᵀ != A", trial)
		}
		if !a.MulNaive(b).Transpose().Equal(b.Transpose().MulNaive(a.Transpose())) {
			t.Fatalf("trial %d: (A·B)ᵀ != Bᵀ·Aᵀ", trial)
		}
	}
}

func TestIntMatSubM(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randIntMat(rng, 5, 7, 64)
	b := randIntMat(rng, 5, 7, 64)
	if !a.SubM(b).Add(b).Equal(a) {
		t.Fatalf("(A−B)+B != A")
	}
	if !a.SubM(a).Equal(NewIntMat(5, 7)) {
		t.Fatalf("A−A != 0")
	}
}

func TestIntMatBlockStitch(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randIntMat(rng, 6, 8, 64)
	z := NewIntMat(6, 8)
	z.SetBlock(0, 0, a.Block(0, 0, 3, 4))
	z.SetBlock(0, 4, a.Block(0, 4, 3, 4))
	z.SetBlock(3, 0, a.Block(3, 0, 3, 4))
	z.SetBlock(3, 4, a.Block(3, 4, 3, 4))
	if !z.Equal(a) {
		t.Fatalf("block decompose/stitch round-trip failed")
	}
}

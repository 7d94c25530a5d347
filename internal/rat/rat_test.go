package rat

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bigint"
)

func randRat(rng *rand.Rand) Rat {
	p := rng.Int63n(1<<30) - 1<<29
	q := rng.Int63n(1<<20) + 1
	return NewInt64(p, q)
}

func randBigRat(rng *rand.Rand) Rat {
	p := bigint.Random(rng, 1+rng.Intn(200))
	if rng.Intn(2) == 0 {
		p = p.Neg()
	}
	q := bigint.Random(rng, 1+rng.Intn(100))
	return New(p, q)
}

func toBigRat(x Rat) *big.Rat {
	return new(big.Rat).SetFrac(x.Num().ToBig(), x.Den().ToBig())
}

func TestCanonicalForm(t *testing.T) {
	x := NewInt64(6, -4)
	if got := x.String(); got != "-3/2" {
		t.Errorf("6/-4 = %q, want -3/2", got)
	}
	if x.Den().Sign() <= 0 {
		t.Error("denominator must be positive")
	}
	y := NewInt64(-10, -5)
	if got := y.String(); got != "2" {
		t.Errorf("-10/-5 = %q, want 2", got)
	}
	if !NewInt64(0, 7).IsZero() {
		t.Error("0/7 should be zero")
	}
}

func TestZeroValueIsUsable(t *testing.T) {
	var z Rat
	if !z.IsZero() || !z.IsInt() {
		t.Fatal("zero value should be integer 0")
	}
	if got := z.Add(One()); !got.Equal(One()) {
		t.Errorf("0 + 1 = %v", got)
	}
	if got := z.Mul(NewInt64(3, 7)); !got.IsZero() {
		t.Errorf("0 * 3/7 = %v", got)
	}
	if got := z.String(); got != "0" {
		t.Errorf("String() = %q", got)
	}
}

func TestArithmeticAgainstBigRat(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 400; i++ {
		x, y := randBigRat(rng), randBigRat(rng)
		if got, want := toBigRat(x.Add(y)), new(big.Rat).Add(toBigRat(x), toBigRat(y)); got.Cmp(want) != 0 {
			t.Fatalf("Add(%v, %v) = %v, want %v", x, y, got, want)
		}
		if got, want := toBigRat(x.Sub(y)), new(big.Rat).Sub(toBigRat(x), toBigRat(y)); got.Cmp(want) != 0 {
			t.Fatalf("Sub mismatch")
		}
		if got, want := toBigRat(x.Mul(y)), new(big.Rat).Mul(toBigRat(x), toBigRat(y)); got.Cmp(want) != 0 {
			t.Fatalf("Mul mismatch")
		}
		if !y.IsZero() {
			if got, want := toBigRat(x.Div(y)), new(big.Rat).Quo(toBigRat(x), toBigRat(y)); got.Cmp(want) != 0 {
				t.Fatalf("Div mismatch")
			}
		}
	}
}

func TestInv(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 200; i++ {
		x := randRat(rng)
		if x.IsZero() {
			continue
		}
		if got := x.Mul(x.Inv()); !got.Equal(One()) {
			t.Fatalf("x * 1/x = %v for x = %v", got, x)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) should panic")
		}
	}()
	Zero().Inv()
}

func TestPow(t *testing.T) {
	x := NewInt64(-2, 3)
	if got := x.Pow(0); !got.Equal(One()) {
		t.Errorf("x^0 = %v", got)
	}
	if got := x.Pow(3); !got.Equal(NewInt64(-8, 27)) {
		t.Errorf("(-2/3)^3 = %v", got)
	}
	if got := Zero().Pow(0); !got.Equal(One()) {
		t.Errorf("0^0 = %v, want 1 (homogeneous-point convention)", got)
	}
	if got := Zero().Pow(5); !got.IsZero() {
		t.Errorf("0^5 = %v", got)
	}
}

func TestIntConversion(t *testing.T) {
	if got := NewInt64(84, 4).Int(); !got.Equal(bigint.FromInt64(21)) {
		t.Errorf("84/4 as Int = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Int() of non-integer should panic")
		}
	}()
	NewInt64(1, 2).Int()
}

func TestCmp(t *testing.T) {
	vals := []Rat{NewInt64(-3, 2), NewInt64(-1, 1), Zero(), NewInt64(1, 3), NewInt64(1, 2), One(), NewInt64(7, 2)}
	for i := range vals {
		for j := range vals {
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got := vals[i].Cmp(vals[j]); got != want {
				t.Errorf("Cmp(%v, %v) = %d, want %d", vals[i], vals[j], got, want)
			}
		}
	}
}

// Property: Rat is a field.
func TestFieldAxiomsQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cfg := &quick.Config{MaxCount: 150}
	check := func(name string, f func(int) bool) {
		if err := quick.Check(f, cfg); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	check("add-comm", func(int) bool { a, b := randRat(rng), randRat(rng); return a.Add(b).Equal(b.Add(a)) })
	check("mul-comm", func(int) bool { a, b := randRat(rng), randRat(rng); return a.Mul(b).Equal(b.Mul(a)) })
	check("add-assoc", func(int) bool {
		a, b, c := randRat(rng), randRat(rng), randRat(rng)
		return a.Add(b).Add(c).Equal(a.Add(b.Add(c)))
	})
	check("mul-assoc", func(int) bool {
		a, b, c := randRat(rng), randRat(rng), randRat(rng)
		return a.Mul(b).Mul(c).Equal(a.Mul(b.Mul(c)))
	})
	check("distrib", func(int) bool {
		a, b, c := randRat(rng), randRat(rng), randRat(rng)
		return a.Mul(b.Add(c)).Equal(a.Mul(b).Add(a.Mul(c)))
	})
	check("mul-inverse", func(int) bool {
		a := randRat(rng)
		if a.IsZero() {
			return true
		}
		return a.Mul(a.Inv()).Equal(One())
	})
	check("sub-inverse", func(int) bool { a := randRat(rng); return a.Sub(a).IsZero() })
}

func TestLargeGCDReduction(t *testing.T) {
	// p/q with a large common factor must reduce.
	rng := rand.New(rand.NewSource(14))
	g := bigint.Random(rng, 128)
	p := bigint.Random(rng, 64).Mul(g)
	q := bigint.Random(rng, 64).Mul(g)
	x := New(p, q)
	wantNum := new(big.Rat).SetFrac(p.ToBig(), q.ToBig())
	if toBigRat(x).Cmp(wantNum) != 0 {
		t.Fatal("value changed by reduction")
	}
	// The reduced denominator must divide the original q exactly.
	rem := new(big.Int).Mod(q.ToBig(), x.Den().ToBig())
	if rem.Sign() != 0 {
		t.Fatal("reduced denominator does not divide original")
	}
}

// TestNewAgainstBigRat covers both reduction paths of New: numerators up
// to 4096 bits, either sign, over the one-word denominators 1, 2, 6 and
// 2^63−1 (the word gcd) and over 2^64−1 (multi-word as an int64, so the
// general gcd), each scaled by a random common factor or not. Every result
// must equal math/big's and be canonical: positive denominator, gcd 1.
func TestNewAgainstBigRat(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	dens := []bigint.Int{
		bigint.FromInt64(1), bigint.FromInt64(2), bigint.FromInt64(6),
		bigint.FromInt64(1<<63 - 1), bigint.FromUint64(^uint64(0)),
	}
	for _, bits := range []int{0, 1, 63, 64, 65, 1000, 4096} {
		for _, q := range dens {
			for _, scale := range []int64{1, 3, 12} {
				p := bigint.Zero()
				if bits > 0 {
					p = bigint.Random(rng, bits)
				}
				if rng.Intn(2) == 0 {
					p = p.Neg()
				}
				p, q := p.MulInt64(scale), q.MulInt64(scale)
				if rng.Intn(2) == 0 {
					p, q = p.Neg(), q.Neg()
				}
				x := New(p, q)
				want := new(big.Rat).SetFrac(p.ToBig(), q.ToBig())
				if toBigRat(x).Cmp(want) != 0 {
					t.Fatalf("New(%v, %v) = %v, want %v", p, q, x, want)
				}
				// gcd(0, den) = den, so this also requires 0 to be 0/1.
				num, den := x.Num().ToBig(), x.Den().ToBig()
				g := new(big.Int).GCD(nil, nil, new(big.Int).Abs(num), den)
				if den.Sign() <= 0 || g.Cmp(big.NewInt(1)) != 0 {
					t.Fatalf("New(%v, %v) = %v is not canonical", p, q, x)
				}
			}
		}
	}
}

// TestNewReducedDoesNotAllocate pins the word path's contract: a fraction
// already in lowest terms over a one-word denominator (the interpolation
// matrices' entries, rebuilt on every fault-tolerant op) costs no
// allocation.
func TestNewReducedDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	p := bigint.Random(rng, 4096)
	if p.RemWord(3) == 0 {
		p = p.Add(bigint.One())
	}
	q := bigint.FromInt64(3)
	for _, v := range []bigint.Int{p, p.Neg()} {
		if got := testing.AllocsPerRun(10, func() { _ = New(v, q) }); got != 0 {
			t.Errorf("New on a reduced fraction allocates %.1f times per call, want 0", got)
		}
	}
}

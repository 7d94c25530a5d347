package bigint

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

// dotSet loads v, |v| < 2^767, into d as its 768-bit two's complement.
func dotSet(d *Dot, v *big.Int) {
	u := new(big.Int).Set(v)
	if u.Sign() < 0 {
		u.Add(u, new(big.Int).Lsh(big.NewInt(1), 64*dotLimbs))
	}
	d.Reset()
	copy(d.z[:], FromBig(u).abs)
}

// dotBig reads d's limbs back as a signed value, independently of
// AppendValue.
func dotBig(d *Dot) *big.Int {
	z := d.z
	v := Int{abs: nat(z[:]).norm()}.ToBig()
	if int64(z[dotLimbs-1]) < 0 {
		v.Sub(v, new(big.Int).Lsh(big.NewInt(1), 64*dotLimbs))
	}
	return v
}

// checkDot requires d to hold want, its Words to be want's limb count (at
// least one), and AppendValue to copy want out as a canonical
// sign-magnitude Int — the zero Int, taking no limbs, for zero — without
// disturbing d.
func checkDot(t *testing.T, ctx string, d *Dot, want *big.Int) {
	t.Helper()
	if got := dotBig(d); got.Cmp(want) != 0 {
		t.Fatalf("%s: sum %v, want %v", ctx, got, want)
	}
	if got, w := d.Words(), int64(max(1, (want.BitLen()+63)/64)); got != w {
		t.Fatalf("%s: Words %d, want %d (sum %v)", ctx, got, w, want)
	}
	slab := make([]uint64, 1, 16)
	v, slab := d.AppendValue(slab)
	if v.ToBig().Cmp(want) != 0 || v.Sign() != want.Sign() {
		t.Fatalf("%s: AppendValue %v (sign %d), want %v", ctx, v, v.Sign(), want)
	}
	if want.Sign() == 0 {
		if v.neg || len(v.abs) != 0 || len(slab) != 1 {
			t.Fatalf("%s: zero came back as neg=%v with %d limbs, slab %d", ctx, v.neg, len(v.abs), len(slab))
		}
	} else if n := len(v.abs); v.abs[n-1] == 0 || cap(v.abs) != n || len(slab) != 1+n {
		t.Fatalf("%s: AppendValue limbs not canonical and capped in the slab", ctx)
	}
	if got := dotBig(d); got.Cmp(want) != 0 {
		t.Fatalf("%s: AppendValue changed the sum to %v", ctx, got)
	}
}

// dotOperand draws a signed operand of at most five limbs: zero, a value
// on a limb boundary, or a random length.
func dotOperand(rng *rand.Rand) Int {
	var x Int
	switch rng.Intn(6) {
	case 0:
		return Int{}
	case 1:
		x = Random(rng, max(1, 64*(1+rng.Intn(5))+rng.Intn(2)-1))
	default:
		x = Random(rng, 1+rng.Intn(64*maxDotLimbs))
	}
	if rng.Intn(2) == 0 {
		x = x.Neg()
	}
	return x
}

// TestDotAddProd drives Dot through random dot products and a boundary
// sweep, checking every partial sum, its Words and its copy-out against
// math/big. The sweep takes every pairing of the limb-boundary operands
// below (up to five limbs, so both kernels run and short operands are
// zero-extended), in all four sign pairings, onto running sums that carry
// or borrow through every limb: zero, the exact negation of the product
// and one off it either way (the sum crosses or touches zero), −1 and 1,
// ±(2^704 − 1) and ±2^704 (the carry or borrow runs into the top limb),
// ±2^766 (the top limb's highest magnitude bit) and random short and long
// sums, all inside the 768-bit range.
func TestDotAddProd(t *testing.T) {
	rng := rand.New(rand.NewSource(1307))
	var d Dot
	for iter := 0; iter < 200; iter++ {
		d.Reset()
		oracle := new(big.Int)
		for step := 0; step < 1+rng.Intn(40); step++ {
			x, y := dotOperand(rng), dotOperand(rng)
			d.AddProd(x, y)
			oracle.Add(oracle, new(big.Int).Mul(x.ToBig(), y.ToBig()))
			checkDot(t, "random dot product", &d, oracle)
		}
	}

	pow := func(e uint) *big.Int { return new(big.Int).Lsh(big.NewInt(1), e) }
	one := big.NewInt(1)
	boundary := []*big.Int{
		big.NewInt(1),
		new(big.Int).Sub(pow(64), one),
		pow(64),
		Random(rng, 255).ToBig(),
		Random(rng, 256).ToBig(),
		Random(rng, 257).ToBig(),
		Random(rng, 319).ToBig(),
		Random(rng, 320).ToBig(),
		new(big.Int).Sub(pow(256), one),
		pow(256),
		new(big.Int).Sub(pow(320), one),
	}
	for _, bx := range boundary {
		for _, by := range boundary {
			for signs := 0; signs < 4; signs++ {
				x, y := new(big.Int).Set(bx), new(big.Int).Set(by)
				if signs&1 != 0 {
					x.Neg(x)
				}
				if signs&2 != 0 {
					y.Neg(y)
				}
				prod := new(big.Int).Mul(x, y)
				negProd := new(big.Int).Neg(prod)
				sums := []*big.Int{
					new(big.Int),
					negProd,
					new(big.Int).Add(negProd, one),
					new(big.Int).Sub(negProd, one),
					prod,
					big.NewInt(-1),
					big.NewInt(1),
					new(big.Int).Sub(pow(704), one),
					new(big.Int).Neg(new(big.Int).Sub(pow(704), one)),
					pow(704),
					new(big.Int).Neg(pow(704)),
					pow(766),
					new(big.Int).Neg(pow(766)),
					Random(rng, 150).ToBig(),
					Random(rng, 150).Neg().ToBig(),
					Random(rng, 700).ToBig(),
					Random(rng, 700).Neg().ToBig(),
				}
				for si, sum := range sums {
					dotSet(&d, sum)
					d.AddProd(FromBig(x), FromBig(y))
					ctx := fmt.Sprintf("%d-bit × %d-bit, signs %d, sum %d", bx.BitLen(), by.BitLen(), signs, si)
					checkDot(t, ctx, &d, new(big.Int).Add(sum, prod))
				}
			}
		}
	}
}

// TestDotReadOut pins the two's-complement read-out at its edges: for
// k = 1…10 the partial sums −2^(64k) (limbs 0…k−1 zero, so the magnitude
// has one limb more than the highest limb that is not all ones),
// −(2^(64k) − 1), 2^(64k) − 1 and 2^(64k); −1, where no limb differs from
// the sign fill; 0 and 1. Each is checked as loaded and as reached by an
// AddProd step from another sum. −1 is also reached from zero by steps
// alone, as are a sum that crosses zero and back and one that cancels
// exactly, whose Words is 1 and whose copy-out is the unsigned zero.
func TestDotReadOut(t *testing.T) {
	rng := rand.New(rand.NewSource(1308))
	pow := func(e uint) *big.Int { return new(big.Int).Lsh(big.NewInt(1), e) }
	one := big.NewInt(1)
	edges := []*big.Int{big.NewInt(-1), new(big.Int), one}
	for k := uint(1); k <= 10; k++ {
		p := pow(64 * k)
		pm := new(big.Int).Sub(p, one)
		edges = append(edges, new(big.Int).Neg(p), new(big.Int).Neg(pm), pm, p)
	}
	var d Dot
	for _, v := range edges {
		dotSet(&d, v)
		checkDot(t, fmt.Sprintf("%v loaded", v), &d, v)
		for trial := 0; trial < 8; trial++ {
			x, y := dotOperand(rng), dotOperand(rng)
			dotSet(&d, new(big.Int).Sub(v, new(big.Int).Mul(x.ToBig(), y.ToBig())))
			d.AddProd(x, y)
			checkDot(t, fmt.Sprintf("%v reached by a %d×%d-limb step", v, len(x.abs), len(y.abs)), &d, v)
		}
	}

	d.Reset()
	checkDot(t, "empty sum", &d, new(big.Int))
	d.AddProd(One(), FromInt64(-1))
	checkDot(t, "1·(−1) from zero", &d, big.NewInt(-1))

	// Across zero and back: +x·y, then −2x·y, then +x·y again.
	x, y := Random(rng, 300), Random(rng, 190)
	want := new(big.Int)
	d.Reset()
	for _, c := range []int64{1, -2, 1} {
		xc := x.MulInt64(c)
		d.AddProd(xc, y)
		want.Add(want, new(big.Int).Mul(xc.ToBig(), y.ToBig()))
		checkDot(t, fmt.Sprintf("crossing zero, step %d", c), &d, want)
	}

	// Exact cancellation after a nonzero partial sum.
	d.Reset()
	d.AddProd(x.Neg(), y)
	d.AddProd(x, y)
	checkDot(t, "exact cancellation", &d, new(big.Int))
}

// TestDotAddProdRejectsWideOperands requires a six-limb operand to panic
// rather than be truncated into a wrong sum.
func TestDotAddProdRejectsWideOperands(t *testing.T) {
	rng := rand.New(rand.NewSource(1309))
	wide, narrow := Random(rng, 321), Random(rng, 64)
	for _, op := range [][2]Int{{wide, narrow}, {narrow, wide}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddProd of a %d×%d-limb product did not panic", len(op[0].abs), len(op[1].abs))
				}
			}()
			var d Dot
			d.AddProd(op[0], op[1])
		}()
	}
}

// TestDotAddProdAllocs requires a Dot step and its read-out to allocate
// nothing: the operands, the product and the sum are on the stack. A Dot
// rents nothing from a pool, so the contract holds under the race detector
// too.
func TestDotAddProdAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1305))
	for _, sh := range dotShapes {
		xs, ys := dotOperands(rng, 32, sh.xb, sh.yb)
		var d Dot
		var words int64
		dot := func() {
			d.Reset()
			for k := range xs {
				d.AddProd(xs[k], ys[k])
				words += d.Words()
			}
		}
		if got := testing.AllocsPerRun(50, dot); got != 0 {
			t.Errorf("%s: AddProd allocates %.1f times per 32-term dot product, want 0", sh.name, got)
		}
	}
}

// BenchmarkDotAddProd times one AddProd and its Words read-out at each
// word-size shape, on signed operands, over 32-term dot products like a
// 32×32 tile entry's.
func BenchmarkDotAddProd(b *testing.B) {
	rng := rand.New(rand.NewSource(1306))
	for _, sh := range dotShapes {
		b.Run(sh.name, func(b *testing.B) {
			xs, ys := dotOperands(rng, 1024, sh.xb, sh.yb)
			var d Dot
			var words int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % len(xs)
				if k%32 == 0 {
					d.Reset()
				}
				d.AddProd(xs[k], ys[k])
				words += d.Words()
			}
			dotSink = words
		})
	}
}

// dotSink keeps the benchmarked accumulation live.
var dotSink int64

package bigint

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func randInt(rng *rand.Rand, maxBits int) Int {
	bits := 1 + rng.Intn(maxBits)
	x := Random(rng, bits)
	if rng.Intn(2) == 0 {
		x = x.Neg()
	}
	if rng.Intn(16) == 0 {
		return Int{}
	}
	return x
}

func TestFromInt64RoundTrip(t *testing.T) {
	cases := []int64{0, 1, -1, 2, -2, 63, -63, 1 << 62, -(1 << 62), 9223372036854775807, -9223372036854775808}
	for _, v := range cases {
		x := FromInt64(v)
		got, ok := x.Int64()
		if !ok || got != v {
			t.Errorf("FromInt64(%d).Int64() = %d, %v", v, got, ok)
		}
	}
}

func TestInt64Overflow(t *testing.T) {
	x := FromUint64(1 << 63) // 2^63 does not fit in int64
	if _, ok := x.Int64(); ok {
		t.Errorf("2^63 should not fit in int64")
	}
	if v, ok := x.Neg().Int64(); !ok || v != -(1<<62)*2 {
		t.Errorf("-2^63 should fit in int64, got %d, %v", v, ok)
	}
	y := FromUint64(1<<63 + 1).Neg()
	if _, ok := y.Int64(); ok {
		t.Errorf("-(2^63+1) should not fit in int64")
	}
}

func TestAddSubAgainstBig(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		x, y := randInt(rng, 512), randInt(rng, 512)
		want := new(big.Int).Add(x.ToBig(), y.ToBig())
		if got := x.Add(y).ToBig(); got.Cmp(want) != 0 {
			t.Fatalf("Add(%v, %v) = %v, want %v", x, y, got, want)
		}
		want.Sub(x.ToBig(), y.ToBig())
		if got := x.Sub(y).ToBig(); got.Cmp(want) != 0 {
			t.Fatalf("Sub(%v, %v) = %v, want %v", x, y, got, want)
		}
	}
}

func TestMulAgainstBig(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		x, y := randInt(rng, 768), randInt(rng, 768)
		want := new(big.Int).Mul(x.ToBig(), y.ToBig())
		if got := x.Mul(y).ToBig(); got.Cmp(want) != 0 {
			t.Fatalf("Mul(%v, %v) = %v, want %v", x, y, got, want)
		}
	}
}

func TestMulInt64(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		x := randInt(rng, 256)
		v := rng.Int63n(1<<40) - 1<<39
		want := new(big.Int).Mul(x.ToBig(), big.NewInt(v))
		if got := x.MulInt64(v).ToBig(); got.Cmp(want) != 0 {
			t.Fatalf("MulInt64(%v, %d) = %v, want %v", x, v, got, want)
		}
	}
}

var sinkInt Int

// TestUnitScalingAllocs pins the limb-sharing fast paths of MulInt64
// by ±1 and of Add with a zero operand: the values match math/big and the
// result reuses the operand's limbs instead of allocating.
func TestUnitScalingAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1501))
	for _, x := range []Int{Random(rng, 1000), Random(rng, 64).Neg(), Zero()} {
		xb := x.ToBig()
		cases := []struct {
			name string
			op   func() Int
			want *big.Int
		}{
			{"MulInt64(1)", func() Int { return x.MulInt64(1) }, xb},
			{"MulInt64(-1)", func() Int { return x.MulInt64(-1) }, new(big.Int).Neg(xb)},
			{"Zero().Add(x)", func() Int { return Zero().Add(x) }, xb},
			{"x.Add(Zero())", func() Int { return x.Add(Zero()) }, xb},
		}
		for _, c := range cases {
			if got := c.op().ToBig(); got.Cmp(c.want) != 0 {
				t.Errorf("%s with x = %v: got %v, want %v", c.name, x, got, c.want)
			}
			if allocs := testing.AllocsPerRun(100, func() { sinkInt = c.op() }); allocs != 0 {
				t.Errorf("%s with %d-bit x allocates %.1f times per op, want 0", c.name, x.BitLen(), allocs)
			}
		}
	}
}

// TestSharedLimbsSurviveAccReuse runs Ints that share a source's limbs
// through every Acc operation that reuses a buffer — SetInt, AddMul,
// SetToom2Mul, AppendValue, then further in-place updates — and checks the
// source's limbs are unchanged: only Acc buffers are ever written. The
// source comes from Take, so its slice has spare capacity an aliasing
// write could grow into.
func TestSharedLimbsSurviveAccReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(1502))
	var src Acc
	src.AddMul(Random(rng, 3000), -3)
	x := src.Take()
	if cap(x.abs) == len(x.abs) {
		t.Fatal("source has no spare capacity; the check would be vacuous")
	}
	snapshot := x.Limbs()
	shared := []Int{x.MulInt64(1), x.MulInt64(-1), Zero().Add(x), x.Add(Zero()), x.Neg(), x.Abs()}
	var a, b, prod Acc
	slab := make([]uint64, 0, 4*len(snapshot))
	for _, s := range shared {
		a.SetInt(s)
		a.AddMul(s, 3)
		a.AddMul(s, -1)
		b.SetInt(s)
		b.AddMul(s, 1)
		prod.SetToom2Mul(&a, &b, 256)
		var v Int
		v, slab = a.AppendValue(slab)
		prod.Add(v)
		a.Shl(7)
		a.DivExact(2)
		b.Neg()
		b.SetSum(&b, &a)
	}
	if got := x.Limbs(); len(got) != len(snapshot) {
		t.Fatalf("source length changed: %d limbs, want %d", len(got), len(snapshot))
	} else {
		for i := range got {
			if got[i] != snapshot[i] {
				t.Fatalf("limb %d of the shared source was overwritten", i)
			}
		}
	}
}

func TestDivExactInt64(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	divisors := []int64{1, 2, 3, 6, 24, -2, -3, 120, 720}
	for i := 0; i < 200; i++ {
		q := randInt(rng, 300)
		d := divisors[rng.Intn(len(divisors))]
		x := q.MulInt64(d)
		if got := x.DivExactInt64(d); !got.Equal(q) {
			t.Fatalf("DivExactInt64((%v)*%d, %d) = %v, want %v", q, d, d, got, q)
		}
	}
}

func TestDivExactPanicsOnInexact(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on inexact division")
		}
	}()
	FromInt64(7).DivExactInt64(2)
}

func TestQuoRemWord(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		x := Random(rng, 1+rng.Intn(400))
		w := rng.Uint64()
		if w == 0 {
			w = 1
		}
		q, r := x.QuoRemWord(w)
		back := q.MulInt64(1).Mul(FromUint64(w)).Add(FromUint64(r))
		if !back.Equal(x) {
			t.Fatalf("QuoRemWord round trip failed: x=%v w=%d", x, w)
		}
		if r >= w {
			t.Fatalf("remainder %d >= divisor %d", r, w)
		}
	}
}

// TestRemWord checks |x| mod w against math/big, signs included, and pins
// that it does not allocate.
func TestRemWord(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 200; i++ {
		var x Int
		if i%10 != 0 {
			x = Random(rng, 1+rng.Intn(400))
		}
		if rng.Intn(2) == 0 {
			x = x.Neg()
		}
		w := []uint64{1, 2, 6, 1<<63 - 1, ^uint64(0), rng.Uint64() | 1}[i%6]
		want := new(big.Int).Mod(new(big.Int).Abs(x.ToBig()), new(big.Int).SetUint64(w))
		if got := x.RemWord(w); got != want.Uint64() {
			t.Fatalf("RemWord(%v, %d) = %d, want %v", x, w, got, want)
		}
	}
	x := Random(rng, 4096)
	if got := testing.AllocsPerRun(10, func() { x.RemWord(1<<63 - 1) }); got != 0 {
		t.Errorf("RemWord allocates %.1f times per call, want 0", got)
	}
}

func TestShifts(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 300; i++ {
		x := randInt(rng, 300)
		s := uint(rng.Intn(200))
		want := new(big.Int).Lsh(x.ToBig(), s)
		if got := x.Shl(s).ToBig(); got.Cmp(want) != 0 {
			t.Fatalf("Shl(%v, %d) mismatch", x, s)
		}
	}
}

func TestExtract(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		x := Random(rng, 1+rng.Intn(500))
		lo := rng.Intn(300)
		width := 1 + rng.Intn(200)
		want := new(big.Int).Rsh(x.ToBig(), uint(lo))
		mask := new(big.Int).Lsh(big.NewInt(1), uint(width))
		mask.Sub(mask, big.NewInt(1))
		want.And(want, mask)
		if got := x.Extract(lo, width).ToBig(); got.Cmp(want) != 0 {
			t.Fatalf("Extract(%v, %d, %d) = %v want %v", x, lo, width, got, want)
		}
	}
}

func TestStringAndParse(t *testing.T) {
	cases := []string{"0", "1", "-1", "9", "10", "-10", "18446744073709551616",
		"123456789012345678901234567890123456789012345678901234567890",
		"-999999999999999999999999999999999999999"}
	for _, s := range cases {
		b, _ := new(big.Int).SetString(s, 10)
		if got := FromBig(b).String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func TestBitLenAndBit(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 200; i++ {
		bits := 1 + rng.Intn(500)
		x := Random(rng, bits)
		if got := x.BitLen(); got != bits {
			t.Fatalf("Random(%d bits).BitLen() = %d", bits, got)
		}
		b := x.ToBig()
		for j := 0; j < bits+10; j += 7 {
			if got, want := x.Bit(j), b.Bit(j); got != want {
				t.Fatalf("Bit(%d) = %d, want %d", j, got, want)
			}
		}
	}
	if Zero().BitLen() != 0 {
		t.Error("Zero().BitLen() != 0")
	}
}

func TestFromLimbsAndLimbs(t *testing.T) {
	x := FromLimbs(false, []uint64{5, 0, 7, 0, 0})
	if got := x.WordLen(); got != 3 {
		t.Fatalf("normalization failed, WordLen = %d", got)
	}
	l := x.Limbs()
	if len(l) != 3 || l[0] != 5 || l[2] != 7 {
		t.Fatalf("Limbs() = %v", l)
	}
	l[0] = 99 // must not alias
	if x.Limbs()[0] != 5 {
		t.Fatal("Limbs() aliases internal storage")
	}
	if !FromLimbs(true, nil).IsZero() {
		t.Fatal("FromLimbs(true, nil) should be zero")
	}
	if FromLimbs(true, []uint64{0, 0}).Sign() != 0 {
		t.Fatal("negative zero escaped normalization")
	}
}

func TestSum(t *testing.T) {
	if !Sum().IsZero() {
		t.Error("empty Sum should be zero")
	}
	got := Sum(FromInt64(1), FromInt64(-5), FromInt64(10))
	if v, _ := got.Int64(); v != 6 {
		t.Errorf("Sum = %v, want 6", got)
	}
}

// Property: (Int, Add, Mul) is a commutative ring.
func TestRingAxiomsQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	gen := func() Int { return randInt(rng, 256) }
	cfg := &quick.Config{MaxCount: 200}

	commAdd := func(_ int) bool {
		a, b := gen(), gen()
		return a.Add(b).Equal(b.Add(a))
	}
	if err := quick.Check(commAdd, cfg); err != nil {
		t.Error("Add not commutative:", err)
	}
	commMul := func(_ int) bool {
		a, b := gen(), gen()
		return a.Mul(b).Equal(b.Mul(a))
	}
	if err := quick.Check(commMul, cfg); err != nil {
		t.Error("Mul not commutative:", err)
	}
	assocAdd := func(_ int) bool {
		a, b, c := gen(), gen(), gen()
		return a.Add(b).Add(c).Equal(a.Add(b.Add(c)))
	}
	if err := quick.Check(assocAdd, cfg); err != nil {
		t.Error("Add not associative:", err)
	}
	assocMul := func(_ int) bool {
		a, b, c := gen(), gen(), gen()
		return a.Mul(b).Mul(c).Equal(a.Mul(b.Mul(c)))
	}
	if err := quick.Check(assocMul, cfg); err != nil {
		t.Error("Mul not associative:", err)
	}
	distrib := func(_ int) bool {
		a, b, c := gen(), gen(), gen()
		return a.Mul(b.Add(c)).Equal(a.Mul(b).Add(a.Mul(c)))
	}
	if err := quick.Check(distrib, cfg); err != nil {
		t.Error("Mul does not distribute over Add:", err)
	}
	negInverse := func(_ int) bool {
		a := gen()
		return a.Add(a.Neg()).IsZero()
	}
	if err := quick.Check(negInverse, cfg); err != nil {
		t.Error("Neg is not an additive inverse:", err)
	}
}

func TestCmpOrdering(t *testing.T) {
	vals := []Int{FromInt64(-100), FromInt64(-1), Zero(), One(), FromInt64(100), Random(rand.New(rand.NewSource(1)), 200)}
	for i, a := range vals {
		for j, b := range vals {
			want := a.ToBig().Cmp(b.ToBig())
			if got := a.Cmp(b); got != want {
				t.Errorf("Cmp(vals[%d], vals[%d]) = %d, want %d", i, j, got, want)
			}
		}
	}
}

func TestBigRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 100; i++ {
		x := randInt(rng, 400)
		if got := FromBig(x.ToBig()); !got.Equal(x) {
			t.Fatalf("FromBig(ToBig(%v)) = %v", x, got)
		}
	}
}

func BenchmarkSchoolbookMul(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	for _, bits := range []int{1024, 4096, 16384} {
		x, y := Random(rng, bits), Random(rng, bits)
		b.Run(byteSize(bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = x.Mul(y)
			}
		})
	}
}

func byteSize(bits int) string {
	switch {
	case bits >= 1<<20:
		return "bits=big"
	default:
		return "bits=" + itoa(bits)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// TestBigBridgeRoundTrip pins the math/big bridge at the limb and word
// boundaries, signed and multi-limb: ToBig and ToBigOn give the value the
// limbs denote, and FromBig and AppendBig give back exactly those limbs,
// whatever the width of big.Word. The reference is built from the limbs
// with math/big alone.
func TestBigBridgeRoundTrip(t *testing.T) {
	cases := []struct {
		neg   bool
		limbs []uint64
	}{
		{false, nil},
		{false, []uint64{1}},
		{true, []uint64{1}},
		{false, []uint64{1<<32 - 1}},
		{false, []uint64{1 << 32}},
		{true, []uint64{1<<32 + 1}},
		{false, []uint64{^uint64(0)}},
		{false, []uint64{0, 1}},
		{true, []uint64{0, 1}},
		{false, []uint64{5, 1 << 32, 1<<63 | 1}},
		{true, []uint64{0x0123456789abcdef, 0, ^uint64(0), 0xfedcba9876543210, 7}},
	}
	for _, c := range cases {
		want := new(big.Int)
		for i := len(c.limbs) - 1; i >= 0; i-- {
			want.Lsh(want, 64).Add(want, new(big.Int).SetUint64(c.limbs[i]))
		}
		if c.neg {
			want.Neg(want)
		}
		x := FromLimbs(c.neg, c.limbs)
		if got := x.ToBig(); got.Cmp(want) != 0 {
			t.Errorf("ToBig(%v) = %v, want %v", x, got, want)
		}
		words := make([]big.Word, x.WordLen()*BigWordsPerLimb)
		if got := x.ToBigOn(new(big.Int), words[:len(words):len(words)]); got.Cmp(want) != 0 {
			t.Errorf("ToBigOn(%v) = %v, want %v", x, got, want)
		}
		back := FromBig(want)
		if !back.Equal(x) || back.Sign() != want.Sign() || back.WordLen() != len(c.limbs) {
			t.Errorf("FromBig(%v) = %v (%d limbs), want %v", want, back, back.WordLen(), x)
		}
		slab := []uint64{42}
		got, slab := AppendBig(slab, want)
		if !got.Equal(x) || len(slab) != 1+len(c.limbs) || slab[0] != 42 {
			t.Errorf("AppendBig(%v) = %v over slab %v, want %v", want, got, slab, x)
		}
	}
}

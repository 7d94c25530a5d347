package bigint

import "math/bits"

// Toom2Counts are the operation counts of one SetToom2Mul, in the terms of
// internal/toom's Stats: every internal node of the recursion is one
// recursive call with two evaluations and one interpolation.
type Toom2Counts struct {
	BaseMuls int64 // schoolbook base cases
	Nodes    int64 // internal nodes of the recursion tree
	WordOps  int64 // word-level operations (the cost model's F)
}

// SetToom2Mul sets a = x·y by the counted Toom-2 (Karatsuba) recursion over
// the evaluation points 0, 1, ∞ and returns its counts. It is the dedicated
// node of internal/toom's Toom-Cook-k recursion for that bilinear form: the
// same digits, the same sub-products and the same charges, computed on raw
// limbs with every temporary in one pooled arena, so a call makes no heap
// allocation once a's buffer has grown. a must be neither x nor y.
//
// With |v| the limb count of v (0 for zero) and w(v) = max(1, |v|):
//
//   - a zero operand gives 0 and charges nothing;
//   - when both operands fit in thresholdBits, the base case multiplies
//     through the kernel ladder and charges |x|·|y| words;
//   - otherwise, with s = ⌈maxBits/2⌉, x = x1·2^s + x0 and y likewise, the
//     node forms p0 = x0·y0, p1 = (x0+x1)(y0+y1) and p∞ = x1·y1 recursively,
//     c1 = p1 − p0 − p∞, and x·y = p0 + c1·2^s + p∞·2^2s, charging
//     4(|x0|+|x1|+|y0|+|y1|) for the two evaluations, 4w(p0) + 2w(p1) +
//     4w(p∞) for applying W^T, w(p0) + w(c1) + w(p∞) for the interpolated
//     coefficients and the same again for recomposing them.
func (a *Acc) SetToom2Mul(x, y *Acc, thresholdBits int) Toom2Counts {
	if a == x || a == y {
		panic("bigint: SetToom2Mul destination aliases an operand")
	}
	var c Toom2Counts
	if len(x.abs) == 0 || len(y.abs) == 0 {
		a.Reset()
		return c
	}
	ar := getArena()
	ar.ensure(toom2ScratchFor(max(natBitLen(x.abs), natBitLen(y.abs)), thresholdBits))
	a.abs = toom2Mul(natGrow(a.abs, len(x.abs)+len(y.abs)), x.abs, y.abs, thresholdBits, ar, &c)
	putArena(ar)
	a.neg = x.neg != y.neg
	return c
}

// toom2ScratchFor bounds the arena limbs live at once in a SetToom2Mul on
// operands of at most bits bits: an open node holds 10l+4 limbs (four
// l-limb digits, two (l+1)-limb digit sums, and the p∞ and p1 products),
// and its largest child operand, a digit sum, has s+1 bits.
func toom2ScratchFor(bits, thresholdBits int) int {
	n := 0
	for bits > thresholdBits {
		s := (bits + 1) / 2
		l := (s + 63) / 64
		n += 10*l + 4
		bits = s + 1
	}
	return n
}

// toom2Mul writes x·y into z for canonical x and y (len(z) == len(x)+len(y),
// z aliasing neither) and returns the canonical product. Every limb of z is
// written.
func toom2Mul(z, x, y nat, th int, ar *arena, c *Toom2Counts) nat {
	if len(x) == 0 || len(y) == 0 {
		clear(z)
		return z[:0]
	}
	maxBits := max(natBitLen(x), natBitLen(y))
	if maxBits <= th {
		c.BaseMuls++
		c.WordOps += int64(len(x)) * int64(len(y))
		clear(z)
		if len(x) < len(y) {
			x, y = y, x
		}
		return mulLadder(z, x, y)
	}
	c.Nodes++
	s := (maxBits + 1) / 2
	l := (s + 63) / 64
	mark := ar.mark()
	// One block holds the digits and digit sums (evaluation at 0, 1, ∞) and
	// the p∞ and p1 products.
	buf := ar.alloc(10*l + 4)
	x0, x1, sx := splitSum(buf[:l], buf[l:2*l], buf[2*l:3*l+1], x, s)
	y0, y1, sy := splitSum(buf[3*l+1:4*l+1], buf[4*l+1:5*l+1], buf[5*l+1:6*l+2], y, s)
	prods := buf[6*l+2:]

	// p0 lands in z's low limbs; p0 < 2^2s, so p∞·2^2s can be added beside
	// it without overlapping, and c1·2^s is then added once.
	p0 := toom2Mul(z[:len(x0)+len(y0)], x0, y0, th, ar, c)
	pInf := toom2Mul(prods[:len(x1)+len(y1)], x1, y1, th, ar, c)
	p1 := toom2Mul(prods[len(x1)+len(y1):][:len(sx)+len(sy)], sx, sy, th, ar, c)
	w1 := max(len(p1), 1)
	c1 := subTwoFrom(p1, p0, pInf)
	c.WordOps += int64(4*(len(x0)+len(x1)+len(y0)+len(y1)) +
		6*max(len(p0), 1) + 2*w1 + 6*max(len(pInf), 1) + 2*max(len(c1), 1))

	clear(z[len(p0):])
	addShlAt(z, pInf, uint(2*s))
	addShlAt(z, c1, uint(s))
	ar.release(mark)
	return z.norm()
}

// splitSum writes the base-2^s digits of x < 2^2s, x0 = x mod 2^s and
// x1 = x >> s, into the l-limb slots d0 and d1 (l = ⌈s/64⌉), and x0 + x1
// into the (l+1)-limb slot sum, in one pass; it returns all three
// canonical.
func splitSum(d0, d1, sum, x nat, s int) (nat, nat, nat) {
	l := len(d0)
	q, r := s/64, uint(s)%64
	var carry uint64
	for i := 0; i < l; i++ {
		var lo, hi uint64
		if i < len(x) {
			lo = x[i]
		}
		if i == q {
			// The limb holding bit s (only when r != 0, as q = l-1 then).
			lo &= 1<<r - 1
		}
		if j := q + i; j < len(x) {
			hi = x[j] >> r
			if j+1 < len(x) {
				// x[j+1] << (64-r), which is 0 for r == 0; both shifts are
				// masked below 64, so they compile to plain shifts.
				hi |= x[j+1] << 1 << ((63 - r) & 63)
			}
		}
		d0[i], d1[i] = lo, hi
		sum[i], carry = bits.Add64(lo, hi, carry)
	}
	sum[l] = carry
	return d0.norm(), d1.norm(), sum.norm()
}

// subTwoFrom sets t -= a + b in one pass and returns t canonical, for
// canonical a and b with a + b <= t (so neither is longer than t).
func subTwoFrom(t, a, b nat) nat {
	if len(a) < len(b) {
		a, b = b, a
	}
	var ba, bb uint64
	i := 0
	for ; i < len(b); i++ {
		t[i], ba = bits.Sub64(t[i], a[i], ba)
		t[i], bb = bits.Sub64(t[i], b[i], bb)
	}
	for ; i < len(a); i++ {
		t[i], ba = bits.Sub64(t[i], a[i], ba)
		t[i], bb = bits.Sub64(t[i], 0, bb)
	}
	for ; ba|bb != 0; i++ {
		t[i], ba = bits.Sub64(t[i], ba, 0)
		t[i], bb = bits.Sub64(t[i], bb, 0)
	}
	return t.norm()
}

// addShlAt adds v·2^s into z in place, propagating the carry. The caller
// guarantees the sum fits in len(z) limbs.
func addShlAt(z, v nat, s uint) {
	if len(v) == 0 {
		return
	}
	i := int(s / 64)
	off := s % 64
	// Shifted limb j is v[j]<<off | v[j-1]>>(64-off), the second term 0 for
	// off == 0 (written with masked shifts, as in splitSum).
	zi := z[i : i+len(v)]
	var carry, prev uint64
	for j, w := range v {
		zi[j], carry = bits.Add64(zi[j], w<<off|prev>>1>>((63-off)&63), carry)
		prev = w
	}
	i += len(v)
	for top := prev >> 1 >> ((63 - off) & 63); top|carry != 0; i++ {
		z[i], carry = bits.Add64(z[i], top, carry)
		top = 0
	}
}

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

// SetToom2Mul sets a = x·y and returns the counts of the counted Toom-2
// (Karatsuba) recursion over the evaluation points 0, 1, ∞. It is the
// dedicated node of internal/toom's Toom-Cook-k recursion for that bilinear
// form: the same digits, the same sub-products and the same charges. The
// counts come from a walk of the model's recursion that splits the digits
// but forms no product; x·y itself is one product on the kernel ladder
// (mulLadder, the rung Int.Mul uses). Every temporary lives in a pooled
// arena, so a call makes no heap allocation once a's buffer has grown. a
// must be neither x nor y.
//
// With |v| the limb count of v (0 for zero) and w(v) = max(1, |v|):
//
//   - a zero operand gives 0 and charges nothing;
//   - when both operands fit in thresholdBits, the base case charges
//     |x|·|y| words;
//   - otherwise, with s = ⌈maxBits/2⌉, x = x1·2^s + x0 and y likewise, the
//     node has the children p0 = x0·y0, p1 = (x0+x1)(y0+y1) and p∞ = x1·y1,
//     and c1 = p1 − p0 − p∞ = x0·y1 + x1·y0; it charges
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
	if maxBits := max(natBitLen(x.abs), natBitLen(y.abs)); maxBits <= thresholdBits {
		c.BaseMuls, c.WordOps = 1, int64(len(x.abs))*int64(len(y.abs))
	} else {
		ar := getArena()
		ar.ensure(toom2ScratchFor(maxBits, thresholdBits))
		toom2Count(x.abs, y.abs, maxBits, thresholdBits, ar, &c)
		putArena(ar)
	}
	a.abs = natMulTo(a.abs, x.abs, y.abs)
	a.neg = x.neg != y.neg
	return c
}

// toom2ScratchFor bounds the arena limbs live at once in the count walk of
// a SetToom2Mul on operands of at most bits bits: an open node holds 6l+2
// limbs (four l-limb digits and two (l+1)-limb digit sums), its largest
// child operand, a digit sum, has s+1 bits, and on top of the open nodes
// one exact length decision (fallback) may form two products of at most
// l+1 limbs per operand, which the top node's fb bounds.
func toom2ScratchFor(bits, thresholdBits int) int {
	n, fb := 0, 0
	for bits > thresholdBits {
		s := (bits + 1) / 2
		l := (s + 63) / 64
		if fb == 0 {
			fb = 4*l + 2 + mulScratchFor(l+1, l+1)
		}
		n += 6*l + 2
		bits = s + 1
	}
	return n + fb
}

// toom2Count adds to c the counts of the internal node x·y (canonical, with
// maxBits = max(bl(x), bl(y)) above th) and of its subtree. The node splits
// its digits and digit sums into one arena block, as the model's recursion
// does, and charges the word lengths of its products without forming them
// (prodWords, crossWords); zero and base-case children are counted without
// a call.
func toom2Count(x, y nat, maxBits, th int, ar *arena, c *Toom2Counts) {
	c.Nodes++
	s := (maxBits + 1) / 2
	l := (s + 63) / 64
	mark := ar.mark()
	buf := ar.alloc(6*l + 2)
	x0, x1, sx := splitSum(buf[:l], buf[l:2*l], buf[2*l:3*l+1], x, s)
	y0, y1, sy := splitSum(buf[3*l+1:4*l+1], buf[4*l+1:5*l+1], buf[5*l+1:], y, s)
	bx0, bx1, bsx := natBitLen(x0), natBitLen(x1), natBitLen(sx)
	by0, by1, bsy := natBitLen(y0), natBitLen(y1), natBitLen(sy)
	c.WordOps += int64(4*(len(x0)+len(x1)+len(y0)+len(y1)) +
		6*prodWords(x0, y0, bx0, by0, ar) + 2*prodWords(sx, sy, bsx, bsy, ar) +
		6*prodWords(x1, y1, bx1, by1, ar) + 2*crossWords(x0, x1, y0, y1, bx0, bx1, by0, by1, ar))
	toom2Child(x0, y0, bx0, by0, th, ar, c)
	toom2Child(x1, y1, bx1, by1, th, ar, c)
	toom2Child(sx, sy, bsx, bsy, th, ar, c)
	ar.release(mark)
}

// toom2Child counts the child product u·v of bl(u) = bu and bl(v) = bv
// bits: nothing for a zero operand, one base case, or a node.
func toom2Child(u, v nat, bu, bv, th int, ar *arena, c *Toom2Counts) {
	switch b := max(bu, bv); {
	case bu == 0 || bv == 0:
	case b <= th:
		c.BaseMuls++
		c.WordOps += int64(len(u)) * int64(len(v))
	default:
		toom2Count(u, v, b, th, ar, c)
	}
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

// prodWords returns w(a·b) = max(1, |a·b|) for canonical a and b of na and
// nb bits. Only at a doubtful length, bl(a)+bl(b) ≡ 1 (mod 64), does it
// look past the bit lengths: the leading limbs decide it (leadProdWords),
// and only when they cannot is a·b formed in the arena.
func prodWords(a, b nat, na, nb int, ar *arena) int {
	if na == 0 || nb == 0 {
		return 1
	}
	if n := na + nb; n%64 != 1 {
		return (n + 63) / 64
	}
	if w, ok := leadProdWords(a, b); ok {
		return w
	}
	mark := ar.mark()
	z := ar.alloc(len(a) + len(b))
	mulOrdered(z, a, b, ar)
	w := len(z.norm())
	ar.release(mark)
	return w
}

// crossWords returns w(x0·y1 + x1·y0) for canonical digits of the given bit
// lengths. A zero term leaves a single product (prodWords); otherwise only
// a doubtful length looks past the bit lengths: the leading limbs decide it
// (leadCrossWords), and only when they cannot is the sum formed in the
// arena.
func crossWords(x0, x1, y0, y1 nat, bx0, bx1, by0, by1 int, ar *arena) int {
	switch {
	case bx0 == 0 || by1 == 0:
		return prodWords(x1, y0, bx1, by0, ar)
	case bx1 == 0 || by0 == 0:
		return prodWords(x0, y1, bx0, by1, ar)
	}
	if e := max(bx0+by1, bx1+by0); (e-1)%64 != 0 && e%64 != 0 {
		return (e + 63) / 64
	}
	if w, ok := leadCrossWords(x0, x1, y0, y1); ok {
		return w
	}
	mark := ar.mark()
	z := ar.alloc(max(len(x0)+len(y1), len(x1)+len(y0)) + 1)
	t := ar.alloc(len(x1) + len(y0))
	mulOrdered(z, x0, y1, ar)
	mulOrdered(t, x1, y0, ar)
	addAt(z, t, 0)
	w := len(z.norm())
	ar.release(mark)
	return w
}

// mulOrdered writes a·b into the zeroed z[:len(a)+len(b)] through the
// ladder's dispatch, drawing scratch from ar.
func mulOrdered(z, a, b nat, ar *arena) {
	if len(a) < len(b) {
		a, b = b, a
	}
	mulTo(z[:len(a)+len(b)], a, b, ar)
}

// The length decisions. bl(a·b) is bl(a)+bl(b) or one less, so a product's
// word length is in doubt only when bl(a)+bl(b) ≡ 1 (mod 64). With m the
// leading 64 bits of a nonzero operand, a ∈ [m, m+1)·2^(bl(a)−64), so
//
//	a·b ∈ [P, U+1)·2^(bl(a)+bl(b)−128),  P = ma·mb,  U = P + ma + mb,
//
// where U < 2^128. The interval decides the length unless it straddles the
// boundary 2^(bl(a)+bl(b)−1).

// lead returns the leading 64 bits m of nonzero canonical x: x ∈ [m,
// m+1)·2^(bl(x)−64), and 2^63 <= m < 2^64.
func lead(x nat) uint64 {
	n := len(x)
	top := x[n-1]
	z := uint(bits.LeadingZeros64(top))
	m := top << z
	if n > 1 {
		// x[n-2] >> (64-z), which is 0 for z == 0 (masked shifts, as in
		// splitSum).
		m |= x[n-2] >> 1 >> ((63 - z) & 63)
	}
	return m
}

// leadBounds returns P and U (as high and low words) for nonzero canonical
// a and b: a·b/2^(bl(a)+bl(b)−128) ∈ [P, U+1).
func leadBounds(a, b nat) (pHi, pLo, uHi, uLo uint64) {
	ma, mb := lead(a), lead(b)
	pHi, pLo = bits.Mul64(ma, mb)
	var c1, c2 uint64
	uLo, c1 = bits.Add64(pLo, ma, 0)
	uLo, c2 = bits.Add64(uLo, mb, 0)
	return pHi, pLo, pHi + c1 + c2, uLo
}

// leadProdWords returns w(a·b) for nonzero canonical a and b as decided by
// their leading limbs, and false when the limbs cannot decide it. With
// n = bl(a)+bl(b) ≡ 1 (mod 64), a·b has n/64+1 words when a·b ≥ 2^(n−1),
// that is when P ≥ 2^127, and n/64 words when U+1 ≤ 2^127.
func leadProdWords(a, b nat) (int, bool) {
	n := natBitLen(a) + natBitLen(b)
	if n%64 != 1 {
		return (n + 63) / 64, true
	}
	pHi, _, uHi, _ := leadBounds(a, b)
	switch {
	case pHi>>63 != 0:
		return n/64 + 1, true
	case uHi>>63 == 0:
		return n / 64, true
	}
	return 0, false
}

// leadCrossWords returns w(x0·y1 + x1·y0) for nonzero canonical digits as
// decided by their leading limbs, and false when the limbs cannot decide
// it. With A = bl(x0)+bl(y1), B = bl(x1)+bl(y0) and E = max(A, B), the sum
// has E−1, E or E+1 bits, so its word length is in doubt only when the
// multiple of 64 M is E−1 or E; it then has M/64+1 words when the sum is
// at least 2^M, and M/64 otherwise. Both products' intervals are brought to
// the unit 2^(E−127), rounding the lower ends down and the upper ends up,
// and summed in 128 bits: the sum lies in [lo, hi+1), and 2^M is 2^t units.
func leadCrossWords(x0, x1, y0, y1 nat) (int, bool) {
	a, b := natBitLen(x0)+natBitLen(y1), natBitLen(x1)+natBitLen(y0)
	e := max(a, b)
	var t uint
	switch {
	case (e-1)%64 == 0:
		t = 126
	case e%64 == 0:
		t = 127
	default:
		return (e + 63) / 64, true
	}
	m := e - 127 + int(t)
	p1h, p1l, u1h, u1l := leadBounds(x0, y1)
	p2h, p2l, u2h, u2l := leadBounds(x1, y0)
	s1, s2 := uint(1+e-a), uint(1+e-b) // both >= 1
	// lo = ⌊P1/2^s1⌋ + ⌊P2/2^s2⌋. The upper ends: (U+1)/2^s ≤ ⌊U/2^s⌋ + 1
	// for s ≥ 1, so the sum is below ⌊U1/2^s1⌋ + ⌊U2/2^s2⌋ + 2 = hi + 1.
	loH, _ := sumShr128(p1h, p1l, s1, p2h, p2l, s2)
	hiH, hiL := sumShr128(u1h, u1l, s1, u2h, u2l, s2)
	_, c := bits.Add64(hiL, 1, 0)
	hiH += c
	switch {
	case loH>>(t-64) != 0:
		return m/64 + 1, true
	case hiH>>(t-64) == 0:
		return m / 64, true
	}
	return 0, false
}

// sumShr128 returns ⌊X/2^s⌋ + ⌊Y/2^t⌋ as high and low words, for 128-bit
// X = xh·2^64 + xl and Y = yh·2^64 + yl and shifts s, t ≥ 1, so that each
// term is below 2^127 and the sum stays below 2^128 − 1.
func sumShr128(xh, xl uint64, s uint, yh, yl uint64, t uint) (uint64, uint64) {
	xh, xl = shr128(xh, xl, s)
	yh, yl = shr128(yh, yl, t)
	l, c := bits.Add64(xl, yl, 0)
	return xh + yh + c, l
}

// shr128 returns ⌊(h·2^64 + l) / 2^s⌋ as high and low words.
func shr128(h, l uint64, s uint) (uint64, uint64) {
	switch {
	case s >= 128:
		return 0, 0
	case s >= 64:
		return 0, h >> (s - 64)
	}
	return h >> s, l>>s | h<<(64-s)
}

package bigint

import "math/bits"

// The schoolbook → Karatsuba crossover lives in the crossover ladder
// (ladder.go, karatsubaThresholdLimbs) with the other rungs, so tests can
// move it and this file and the docs cannot drift apart. Tuning history:
// 40 measured fastest on 32768-bit operands on amd64 (see EXPERIMENTS.md).

// basicMulTo adds x*y into z using the schoolbook algorithm. z must have
// length >= len(x)+len(y); the product is accumulated (z += x*y), so callers
// pass a zeroed destination for a plain multiply. Operands need not be in
// canonical form (trailing zero limbs are fine).
func basicMulTo(z, x, y nat) {
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		var carry uint64
		for j, yj := range y {
			hi, lo := bits.Mul64(xi, yj)
			var c1, c2 uint64
			lo, c1 = bits.Add64(lo, z[i+j], 0)
			lo, c2 = bits.Add64(lo, carry, 0)
			z[i+j] = lo
			carry = hi + c1 + c2
		}
		for k := i + len(y); carry != 0; k++ {
			z[k], carry = bits.Add64(z[k], carry, 0)
		}
	}
}

// addAt computes z[i:] += t in place, propagating the carry through z. The
// caller guarantees the sum fits in z (true for every partial product the
// multiplication algorithms form); a carry off the end is a logic error and
// panics via the index check.
func addAt(z, t nat, i int) {
	var carry uint64
	for j, tj := range t {
		z[i+j], carry = bits.Add64(z[i+j], tj, carry)
	}
	for j := i + len(t); carry != 0; j++ {
		z[j], carry = bits.Add64(z[j], carry, 0)
	}
}

// subFrom computes t -= s in place for t >= s (as integers, both possibly
// non-canonical), propagating the borrow through t.
func subFrom(t, s nat) {
	var borrow uint64
	for i, si := range s {
		t[i], borrow = bits.Sub64(t[i], si, borrow)
	}
	for i := len(s); borrow != 0; i++ {
		t[i], borrow = bits.Sub64(t[i], 0, borrow)
	}
}

// addFull writes x+y into z, which must have length len(x)+1 with
// len(x) >= len(y). Every limb of z is written (no zeroing needed).
func addFull(z, x, y nat) {
	var carry uint64
	i := 0
	for ; i < len(y); i++ {
		var c1, c2 uint64
		z[i], c1 = bits.Add64(x[i], y[i], 0)
		z[i], c2 = bits.Add64(z[i], carry, 0)
		carry = c1 + c2
	}
	for ; i < len(x); i++ {
		z[i], carry = bits.Add64(x[i], carry, 0)
	}
	z[len(x)] = carry
}

// karatsuba writes x*y into the zeroed destination z for equal-length
// operands (len(x) == len(y) == n, len(z) == 2n), drawing scratch from the
// arena. Splitting at m = n/2 with x = x1·B^m + x0:
//
//	z = z2·B^2m + ((x0+x1)(y0+y1) − z0 − z2)·B^m + z0
//
// z0 and z2 land in disjoint halves of z directly; only the middle term
// needs scratch (the digit sums and their product), released before return
// so sibling branches reuse the same slab space.
func karatsuba(z, x, y nat, ar *arena) {
	n := len(x)
	if n < karatsubaThresholdLimbs() {
		basicMulTo(z, x, y)
		return
	}
	m := n / 2
	x0, x1 := x[:m], x[m:] // len m, n-m (n-m >= m)
	y0, y1 := y[:m], y[m:]

	karatsuba(z[:2*m], x0, y0, ar) // z0
	karatsuba(z[2*m:], x1, y1, ar) // z2

	mark := ar.mark()
	sx := ar.alloc(n - m + 1)
	sy := ar.alloc(n - m + 1)
	addFull(sx, x1, x0)
	addFull(sy, y1, y0)
	t := ar.alloc(2 * (n - m + 1))
	karatsuba(t, sx, sy, ar)
	subFrom(t, z[:2*m]) // t -= z0
	subFrom(t, z[2*m:]) // t -= z2
	addAt(z, t, m)
	ar.release(mark)
}

// mulTo writes x*y into the zeroed destination z (len(z) == len(x)+len(y),
// len(x) >= len(y) >= 1), dispatching on the crossover ladder. Mildly
// unbalanced NTT-eligible pairs (len(x) < 2·len(y)) go through a single
// transform — cheaper than chunking, which would waste a near-empty second
// block. More unbalanced operands are chunked into len(y)-limb blocks so
// every recursive product is balanced (the standard fix, as in math/big);
// each full block then takes the NTT or Karatsuba rung on its own merits.
func mulTo(z, x, y nat, ar *arena) {
	n := len(y)
	if n < karatsubaThresholdLimbs() {
		basicMulTo(z, x, y)
		return
	}
	if len(x) < 2*n && nttEligible(len(x), n) {
		nttMulTo(z, x, y, ar)
		return
	}
	if len(x) == n {
		karatsuba(z, x, y, ar)
		return
	}
	mark := ar.mark()
	t := ar.alloc(2 * n)
	for i := 0; i < len(x); i += n {
		hi := i + n
		if hi > len(x) {
			hi = len(x)
		}
		xb := x[i:hi]
		if len(xb) == n {
			clear(t)
			if nttEligible(n, n) {
				nttMulTo(t, xb, y, ar)
			} else {
				karatsuba(t, xb, y, ar)
			}
			addAt(z, t, i)
		} else {
			// Final short block: recurse with operands swapped so the
			// longer one is first; its product fits in the tail of z,
			// which is still zeroed beyond the carries already added.
			tb := ar.alloc(len(xb) + n)
			mulTo(tb, y, xb, ar)
			addAt(z, tb, i)
		}
	}
	ar.release(mark)
}

// karaScratchFor returns a slab size that lets a top-level Karatsuba
// multiply with a len(y)-limb shorter operand run without heap fallback:
// each level needs ~2(n-m+1)+2 limbs of live scratch and the level sizes
// halve, so 6n covers the whole path with room for the chunking buffers.
func karaScratchFor(yLen int) int {
	return 6*yLen + 64
}

// mulScratchFor returns a slab size covering whichever ladder rungs a
// top-level len(x)×len(y) multiply can reach: the NTT tier's transform
// buffers when it is eligible (directly, or per chunk plus the chunking
// buffers t and tb of ≤ 2n limbs each), Karatsuba's recursion otherwise.
func mulScratchFor(xLen, yLen int) int {
	n := yLen
	if xLen < 2*n {
		if nttEligible(xLen, n) {
			return nttScratchFor(xLen + n)
		}
		return karaScratchFor(n)
	}
	if nttEligible(n, n) {
		return 4*n + nttScratchFor(2*n)
	}
	return karaScratchFor(n)
}

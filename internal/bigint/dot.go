package bigint

import "math/bits"

// The fused dot-product step behind Acc.AddProd for word-size entries. The
// FT matmul's tile entries are 256-bit values and 257-bit Strassen sums, so
// every product of its dot products has operands of at most five limbs. For
// those, the ladder's fixed costs (a cleared scratch product, the threshold
// load, the normalisation, a compare before a signed add) outweigh the
// product itself. Here the product is formed by straight-line
// product-scanning code in a stack array and added into, or subtracted from,
// the accumulator's limbs in one pass. The code is straight-line on purpose:
// Go does not unroll loops and materialises a loop's carry at every
// iteration. With the operand loads, the zero-extension and the add and
// subtract written as loops, the fused step sped a 32×32 tile up by about
// 1.2× instead of 1.7×.

// maxFusedLimbs is the longest operand the fused kernels take.
const maxFusedLimbs = 5

// mac adds x·y to the three-limb column sum (c2:c1:c0).
func mac(x, y, c0, c1, c2 uint64) (uint64, uint64, uint64) {
	hi, lo := bits.Mul64(x, y)
	var c uint64
	c0, c = bits.Add64(c0, lo, 0)
	c1, c = bits.Add64(c1, hi, c)
	return c0, c1, c2 + c
}

// mul4x4 writes the product of the low four limbs of x and y into z[:8].
// Column k collects every x[i]·y[k−i] before its low limb is stored.
func mul4x4(z *[2 * maxFusedLimbs]uint64, x, y *[maxFusedLimbs]uint64) {
	var c0, c1, c2 uint64
	c0, c1, c2 = mac(x[0], y[0], c0, c1, c2)
	z[0], c0, c1, c2 = c0, c1, c2, 0
	c0, c1, c2 = mac(x[0], y[1], c0, c1, c2)
	c0, c1, c2 = mac(x[1], y[0], c0, c1, c2)
	z[1], c0, c1, c2 = c0, c1, c2, 0
	c0, c1, c2 = mac(x[0], y[2], c0, c1, c2)
	c0, c1, c2 = mac(x[1], y[1], c0, c1, c2)
	c0, c1, c2 = mac(x[2], y[0], c0, c1, c2)
	z[2], c0, c1, c2 = c0, c1, c2, 0
	c0, c1, c2 = mac(x[0], y[3], c0, c1, c2)
	c0, c1, c2 = mac(x[1], y[2], c0, c1, c2)
	c0, c1, c2 = mac(x[2], y[1], c0, c1, c2)
	c0, c1, c2 = mac(x[3], y[0], c0, c1, c2)
	z[3], c0, c1, c2 = c0, c1, c2, 0
	c0, c1, c2 = mac(x[1], y[3], c0, c1, c2)
	c0, c1, c2 = mac(x[2], y[2], c0, c1, c2)
	c0, c1, c2 = mac(x[3], y[1], c0, c1, c2)
	z[4], c0, c1, c2 = c0, c1, c2, 0
	c0, c1, c2 = mac(x[2], y[3], c0, c1, c2)
	c0, c1, c2 = mac(x[3], y[2], c0, c1, c2)
	z[5], c0, c1 = c0, c1, c2
	c0, c1, _ = mac(x[3], y[3], c0, c1, 0)
	z[6], z[7] = c0, c1
}

// mul5x5 writes the product of x and y into z.
func mul5x5(z *[2 * maxFusedLimbs]uint64, x, y *[maxFusedLimbs]uint64) {
	var c0, c1, c2 uint64
	c0, c1, c2 = mac(x[0], y[0], c0, c1, c2)
	z[0], c0, c1, c2 = c0, c1, c2, 0
	c0, c1, c2 = mac(x[0], y[1], c0, c1, c2)
	c0, c1, c2 = mac(x[1], y[0], c0, c1, c2)
	z[1], c0, c1, c2 = c0, c1, c2, 0
	c0, c1, c2 = mac(x[0], y[2], c0, c1, c2)
	c0, c1, c2 = mac(x[1], y[1], c0, c1, c2)
	c0, c1, c2 = mac(x[2], y[0], c0, c1, c2)
	z[2], c0, c1, c2 = c0, c1, c2, 0
	c0, c1, c2 = mac(x[0], y[3], c0, c1, c2)
	c0, c1, c2 = mac(x[1], y[2], c0, c1, c2)
	c0, c1, c2 = mac(x[2], y[1], c0, c1, c2)
	c0, c1, c2 = mac(x[3], y[0], c0, c1, c2)
	z[3], c0, c1, c2 = c0, c1, c2, 0
	c0, c1, c2 = mac(x[0], y[4], c0, c1, c2)
	c0, c1, c2 = mac(x[1], y[3], c0, c1, c2)
	c0, c1, c2 = mac(x[2], y[2], c0, c1, c2)
	c0, c1, c2 = mac(x[3], y[1], c0, c1, c2)
	c0, c1, c2 = mac(x[4], y[0], c0, c1, c2)
	z[4], c0, c1, c2 = c0, c1, c2, 0
	c0, c1, c2 = mac(x[1], y[4], c0, c1, c2)
	c0, c1, c2 = mac(x[2], y[3], c0, c1, c2)
	c0, c1, c2 = mac(x[3], y[2], c0, c1, c2)
	c0, c1, c2 = mac(x[4], y[1], c0, c1, c2)
	z[5], c0, c1, c2 = c0, c1, c2, 0
	c0, c1, c2 = mac(x[2], y[4], c0, c1, c2)
	c0, c1, c2 = mac(x[3], y[3], c0, c1, c2)
	c0, c1, c2 = mac(x[4], y[2], c0, c1, c2)
	z[6], c0, c1, c2 = c0, c1, c2, 0
	c0, c1, c2 = mac(x[3], y[4], c0, c1, c2)
	c0, c1, c2 = mac(x[4], y[3], c0, c1, c2)
	z[7], c0, c1 = c0, c1, c2
	c0, c1, _ = mac(x[4], y[4], c0, c1, 0)
	z[8], z[9] = c0, c1
}

// addProdFused accumulates a += (−1)^neg·x·y for canonical x and y of one
// to maxFusedLimbs limbs. Operands shorter than the kernel are
// zero-extended: both within four limbs run mul4x4, anything longer
// mul5x5. The product is then added into a's limbs when the signs agree,
// and otherwise subtracted from them; a subtraction that borrows out left
// the two's complement of |a − x·y|, which is negated in place while the
// sign flips. a stays canonical.
func (a *Acc) addProdFused(x, y nat, neg bool) {
	var xa, ya [maxFusedLimbs]uint64
	var p [2 * maxFusedLimbs]uint64
	widen(&xa, x)
	widen(&ya, y)
	if len(x) < maxFusedLimbs && len(y) < maxFusedLimbs {
		mul4x4(&p, &xa, &ya)
	} else {
		mul5x5(&p, &xa, &ya)
	}
	z := a.abs
	if len(z) == 0 {
		a.neg = neg // a zero sum takes the product's sign
	}
	// Zero-extend a to the product's full width plus a carry limb, so the
	// product is added or subtracted in one straight-line pass.
	m := max(len(z), len(p))
	if cap(z) <= m {
		grown := make(nat, len(z), m+m/4+4)
		copy(grown, z)
		z = grown
	}
	z = z[:m+1]
	for i := len(a.abs); i <= m; i++ {
		z[i] = 0
	}
	if a.neg == neg {
		c := add10(z, &p)
		for i := len(p); c != 0; i++ {
			z[i], c = bits.Add64(z[i], 0, c)
		}
		a.abs = z.norm()
		return
	}
	b := sub10(z, &p)
	for i := len(p); b != 0 && i < m; i++ {
		z[i], b = bits.Sub64(z[i], 0, b)
	}
	if b != 0 {
		c := uint64(1)
		for i := range z[:m] {
			z[i], c = bits.Add64(^z[i], 0, c)
		}
		a.neg = !a.neg
	}
	a.abs = z[:m].norm()
	if len(a.abs) == 0 {
		a.neg = false
	}
}

// widen zero-extends canonical x of at most maxFusedLimbs limbs into v.
func widen(v *[maxFusedLimbs]uint64, x nat) {
	if len(x) < 4 {
		copy(v[:], x)
		return
	}
	*(*[4]uint64)(v[:]) = [4]uint64(x)
	if len(x) == maxFusedLimbs {
		v[4] = x[4]
	}
}

// add10 adds p into z[:10] and returns the carry out.
func add10(z nat, p *[2 * maxFusedLimbs]uint64) uint64 {
	_ = z[9]
	var c uint64
	z[0], c = bits.Add64(z[0], p[0], 0)
	z[1], c = bits.Add64(z[1], p[1], c)
	z[2], c = bits.Add64(z[2], p[2], c)
	z[3], c = bits.Add64(z[3], p[3], c)
	z[4], c = bits.Add64(z[4], p[4], c)
	z[5], c = bits.Add64(z[5], p[5], c)
	z[6], c = bits.Add64(z[6], p[6], c)
	z[7], c = bits.Add64(z[7], p[7], c)
	z[8], c = bits.Add64(z[8], p[8], c)
	z[9], c = bits.Add64(z[9], p[9], c)
	return c
}

// sub10 subtracts p from z[:10] and returns the borrow out.
func sub10(z nat, p *[2 * maxFusedLimbs]uint64) uint64 {
	_ = z[9]
	var b uint64
	z[0], b = bits.Sub64(z[0], p[0], 0)
	z[1], b = bits.Sub64(z[1], p[1], b)
	z[2], b = bits.Sub64(z[2], p[2], b)
	z[3], b = bits.Sub64(z[3], p[3], b)
	z[4], b = bits.Sub64(z[4], p[4], b)
	z[5], b = bits.Sub64(z[5], p[5], b)
	z[6], b = bits.Sub64(z[6], p[6], b)
	z[7], b = bits.Sub64(z[7], p[7], b)
	z[8], b = bits.Sub64(z[8], p[8], b)
	z[9], b = bits.Sub64(z[9], p[9], b)
	return b
}

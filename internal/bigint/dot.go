package bigint

import "math/bits"

// Word-size dot products. The FT matmul's tile entries are 256-bit values
// and 257-bit Strassen sums, so every product of its dot products has
// operands of at most five limbs. For those, the kernel ladder's fixed costs
// (a cleared scratch product, the threshold load) and a sign-magnitude sum's
// bookkeeping (a compare or a negation around each signed add, a
// normalisation after it) outweigh the product itself. A Dot keeps the
// running sum in fixed-width two's complement instead: each product is
// formed by straight-line product-scanning code in a stack array and added
// into, or subtracted from, all twelve limbs of the sum in one carry chain.
// The code is straight-line on purpose: Go does not unroll loops and
// materialises a loop's carry at every iteration. With the add and subtract
// written as loops, a 32×32 tile ran about 1.2× slower.

// maxDotLimbs is the longest operand the word-size kernels take.
const maxDotLimbs = 5

// dotLimbs is the width of a Dot's two's-complement sum: 768 bits.
const dotLimbs = 12

// Dot is a fixed-width signed accumulator for dot products of word-size
// entries, the rank-local kernel of the FT matmul's tiles. The running sum
// of its AddProd steps is a 12-limb (768-bit) two's-complement value held
// in the Dot itself: a step never allocates, compares magnitudes or
// normalises, Words reads the cost model's charge off the top limbs, and
// AppendValue turns the sum into sign-magnitude once, when it is copied
// out. It uses no pool and no arena. The zero value is the empty sum; a
// Dot is not safe for concurrent use.
//
// Twelve limbs hold any magnitude below 2^767. A product of two operands
// of at most five limbs is below 2^640, so a sum of m such products fits
// for every m below 2^127.
type Dot struct {
	z [dotLimbs]uint64
}

// Reset sets d to zero.
func (d *Dot) Reset() { d.z = [dotLimbs]uint64{} }

// AddProd accumulates d += x·y — one step of a dot product — for operands
// of at most five limbs; a zero operand adds nothing. Two four-limb
// operands, the common case, are read in place by mul4x4. Other operands
// are zero-extended into stack arrays first: both within four limbs run
// mul4x4, anything longer mul5x5. The product is then added when the signs
// agree and subtracted otherwise. A wider operand is a caller's bug
// (Acc.AddProd takes any length) and panics.
func (d *Dot) AddProd(x, y Int) {
	var p [2 * maxDotLimbs]uint64
	switch lx, ly := len(x.abs), len(y.abs); {
	case lx == 4 && ly == 4:
		mul4x4(&p, (*[4]uint64)(x.abs), (*[4]uint64)(y.abs))
	case lx <= maxDotLimbs && ly <= maxDotLimbs:
		var xa, ya [maxDotLimbs]uint64
		widen(&xa, x.abs)
		widen(&ya, y.abs)
		if lx < maxDotLimbs && ly < maxDotLimbs {
			mul4x4(&p, (*[4]uint64)(xa[:]), (*[4]uint64)(ya[:]))
		} else {
			mul5x5(&p, &xa, &ya)
		}
	default:
		panic("bigint: Dot.AddProd operand wider than five limbs")
	}
	if x.neg == y.neg {
		d.add(&p)
	} else {
		d.sub(&p)
	}
}

// add adds p into the sum's low ten limbs and carries through the top two.
func (d *Dot) add(p *[2 * maxDotLimbs]uint64) {
	z := &d.z
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
	z[10], c = bits.Add64(z[10], 0, c)
	z[11] += c
}

// sub subtracts p from the sum's low ten limbs and borrows through the top
// two.
func (d *Dot) sub(p *[2 * maxDotLimbs]uint64) {
	z := &d.z
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
	z[10], b = bits.Sub64(z[10], 0, b)
	z[11] -= b
}

// Words is Int.Words for the running sum, max(1, limbs of |d|): the cost
// model's charge for touching it once. Above the highest limb k that
// differs from the sign fill (0, or all ones for a negative sum) every limb
// is fill. A nonnegative sum has k+1 limbs. A negative one is −(2^(64(k+1))
// − L) for L its limbs 0…k, so its magnitude has k+2 limbs when L is zero
// (−2^(64(k+1)), and −1 at k = −1) and k+1 otherwise.
func (d *Dot) Words() int64 {
	fill := uint64(int64(d.z[dotLimbs-1]) >> 63)
	k := dotLimbs - 1
	for k >= 0 && d.z[k] == fill {
		k--
	}
	if fill == 0 {
		return int64(max(k+1, 1))
	}
	for i := 0; i <= k; i++ {
		if d.z[i] != 0 {
			return int64(k + 1)
		}
	}
	return int64(k + 2)
}

// AppendValue copies the running sum onto the end of slab as a
// sign-magnitude Int over the copied (capped) limbs and returns it with
// the extended slab, as Acc.AppendValue does; d is not disturbed. A zero
// sum is the zero Int and takes no limbs.
func (d *Dot) AppendValue(slab []uint64) (Int, []uint64) {
	m := d.z
	neg := int64(m[dotLimbs-1]) < 0
	if neg {
		c := uint64(1)
		for i := range m {
			m[i], c = bits.Add64(^m[i], 0, c)
		}
	}
	n := dotLimbs
	for n > 0 && m[n-1] == 0 {
		n--
	}
	if n == 0 {
		return Int{}, slab
	}
	off := len(slab)
	slab = append(slab, m[:n]...)
	return Int{neg: neg, abs: nat(slab[off:len(slab):len(slab)])}, slab
}

// mac adds x·y to the three-limb column sum (c2:c1:c0).
func mac(x, y, c0, c1, c2 uint64) (uint64, uint64, uint64) {
	hi, lo := bits.Mul64(x, y)
	var c uint64
	c0, c = bits.Add64(c0, lo, 0)
	c1, c = bits.Add64(c1, hi, c)
	return c0, c1, c2 + c
}

// mul4x4 writes the product of x and y into z[:8].
// Column k collects every x[i]·y[k−i] before its low limb is stored.
func mul4x4(z *[2 * maxDotLimbs]uint64, x, y *[4]uint64) {
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
func mul5x5(z *[2 * maxDotLimbs]uint64, x, y *[maxDotLimbs]uint64) {
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

// widen zero-extends canonical x of at most maxDotLimbs limbs into v.
func widen(v *[maxDotLimbs]uint64, x nat) {
	if len(x) < 4 {
		copy(v[:], x)
		return
	}
	*(*[4]uint64)(v[:]) = [4]uint64(x)
	if len(x) == maxDotLimbs {
		v[4] = x[4]
	}
}

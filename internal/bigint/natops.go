package bigint

import "math/bits"

// Destination-reuse variants of the nat kernels. Each writes its result into
// dst's backing array when the capacity allows (allocating only on growth)
// and returns the canonical (normed) result slice. All of them except
// natMulTo and natExtractTo tolerate dst aliasing an operand at offset 0 —
// the loops read and write the same index before moving on — which is what
// lets the Acc accumulator run fully in place. Results are always returned
// canonical; operands must be canonical where the contract below says so.

// natGrow returns a length-n slice over dst's backing array, replacing it
// with a fresh one (with ~25% headroom, so a sequence of accumulations does
// not reallocate on every one-limb carry growth) when the capacity is too
// small. The contents are unspecified; callers write every limb.
func natGrow(dst nat, n int) nat {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make(nat, n, n+n/4+4)
}

// natSet copies x into dst's backing array, growing it as needed.
func natSet(dst, x nat) nat {
	dst = natGrow(dst, len(x))
	copy(dst, x)
	return dst
}

// natAddTo returns x+y written into dst. dst may alias x or y.
func natAddTo(dst, x, y nat) nat {
	if len(x) < len(y) {
		x, y = y, x
	}
	n := len(x) + 1
	z := natGrow(dst, n)
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
	return z.norm()
}

// natSubTo returns x-y written into dst for canonical x >= y >= 0. dst may
// alias x or y.
func natSubTo(dst, x, y nat) nat {
	z := natGrow(dst, len(x))
	var borrow uint64
	i := 0
	for ; i < len(y); i++ {
		z[i], borrow = bits.Sub64(x[i], y[i], borrow)
	}
	for ; i < len(x); i++ {
		z[i], borrow = bits.Sub64(x[i], 0, borrow)
	}
	if borrow != 0 {
		panic("bigint: natSubTo underflow")
	}
	return z.norm()
}

// natMulWordTo returns x*w written into dst for w != 0. dst may alias x.
func natMulWordTo(dst, x nat, w uint64) nat {
	if len(x) == 0 {
		return dst[:0]
	}
	n := len(x) + 1
	z := natGrow(dst, n)
	var carry uint64
	for i, xi := range x {
		hi, lo := bits.Mul64(xi, w)
		var c uint64
		lo, c = bits.Add64(lo, carry, 0)
		z[i] = lo
		carry = hi + c
	}
	z[len(x)] = carry
	return z.norm()
}

// natShlTo returns x<<s written into dst. dst may alias x: the limbs are
// produced top-down, so every read (indices i, i-1) happens at or below the
// write index and the aliased source is never clobbered early.
func natShlTo(dst, x nat, s uint) nat {
	if len(x) == 0 {
		return dst[:0]
	}
	if s == 0 {
		return natSet(dst, x)
	}
	limbs := int(s / 64)
	shift := s % 64
	n := len(x) + limbs + 1
	z := natGrow(dst, n) // on growth: fresh backing, aliased source stays readable
	if shift == 0 {
		z[n-1] = 0
		copy(z[limbs:n-1], x)
	} else {
		z[n-1] = x[len(x)-1] >> (64 - shift)
		for i := len(x) - 1; i > 0; i-- {
			z[limbs+i] = x[i]<<shift | x[i-1]>>(64-shift)
		}
		z[limbs] = x[0] << shift
	}
	clear(z[:limbs])
	return z.norm()
}

// natDivWordTo divides x by w in place (dst may alias x; same length) and
// returns the canonical quotient and the remainder.
func natDivWordTo(dst, x nat, w uint64) (nat, uint64) {
	if w == 0 {
		panic("bigint: division by zero word")
	}
	z := natGrow(dst, len(x))
	var r uint64
	for i := len(x) - 1; i >= 0; i-- {
		z[i], r = bits.Div64(r, x[i], w)
	}
	return z.norm(), r
}

// natMulTo returns x*y written into dst, climbing the crossover ladder
// (see natMul). dst must not alias x or y: a product cannot be formed in
// place.
func natMulTo(dst, x, y nat) nat {
	if len(x) == 0 || len(y) == 0 {
		return dst[:0]
	}
	if len(x) < len(y) {
		x, y = y, x
	}
	z := natGrow(dst, len(x)+len(y))
	clear(z)
	return mulLadder(z, x, y)
}

// mulLadder writes x*y into the zeroed z (len(z) == len(x)+len(y),
// len(x) >= len(y) >= 1) and returns it normalized. Below the Karatsuba
// crossover it needs no scratch; above it the arena is rented for the call.
func mulLadder(z, x, y nat) nat {
	if len(y) < karatsubaThresholdLimbs() {
		basicMulTo(z, x, y)
		return z.norm()
	}
	ar := getArena()
	ar.ensure(mulScratchFor(len(x), len(y)))
	mulTo(z, x, y, ar)
	putArena(ar)
	return z.norm()
}

// natExtractTo returns bits [lo, lo+width) of x written into dst, which
// must not alias x. The covering limbs are gathered directly (this is the
// digit-splitting hot path: one extraction per digit per recursion node).
func natExtractTo(dst, x nat, lo, width int) nat {
	if width <= 0 || lo/64 >= len(x) {
		return dst[:0]
	}
	src := x[lo/64:]
	off := uint(lo % 64)
	z := natGrow(dst, (width+63)/64)
	// Limbs below m straddle two source limbs; a shift by 64 (off == 0)
	// yields 0 in Go, so the aligned case needs no branch.
	m := min(len(z), len(src)-1)
	for i := 0; i < m; i++ {
		z[i] = src[i]>>off | src[i+1]<<(64-off)
	}
	if m < len(z) {
		z[m] = src[m] >> off
		clear(z[m+1:])
	}
	if rem := width % 64; rem != 0 {
		z[len(z)-1] &= (1 << uint(rem)) - 1
	}
	return z.norm()
}

// natAddShlTo returns z + x<<s, computed in z's backing array (z's value is
// preserved on growth). x must not alias z. The shifted limbs of x are
// formed on the fly, so no shifted copy is materialized; where they land
// beyond z's old top they are written, not added, so the growth region
// needs no clearing.
func natAddShlTo(z, x nat, s uint) nat {
	if len(x) == 0 {
		return z
	}
	limbs := int(s / 64)
	off := s % 64
	old := len(z)
	n := max(old, len(x)+limbs+1) + 1
	if cap(z) >= n {
		z = z[:n]
	} else {
		grown := make(nat, n, n+n/4+4)
		copy(grown, z)
		z = grown
	}
	if limbs > old {
		clear(z[old:limbs])
	}
	// Shifted limb j is x[j]<<off | x[j-1]>>(64-off), and one more limb
	// x[len(x)-1]>>(64-off) on top; a shift by 64 (off == 0) yields 0.
	var carry, prev uint64
	i, j := limbs, 0
	for ; j < len(x) && i < old; i, j = i+1, j+1 {
		z[i], carry = bits.Add64(z[i], x[j]<<off|prev>>(64-off), carry)
		prev = x[j]
	}
	for ; j < len(x); i, j = i+1, j+1 {
		z[i], carry = bits.Add64(x[j]<<off|prev>>(64-off), 0, carry)
		prev = x[j]
	}
	top := prev >> (64 - off)
	if i < old {
		z[i], carry = bits.Add64(z[i], top, carry)
	} else {
		z[i], carry = bits.Add64(top, 0, carry)
	}
	i++
	clear(z[max(i, old):])
	for ; carry != 0; i++ {
		z[i], carry = bits.Add64(z[i], 0, carry)
	}
	return z.norm()
}

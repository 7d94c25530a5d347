// Package bigint implements arbitrary-precision integer arithmetic.
//
// It is the scalar substrate for the Toom-Cook multiplication algorithms in
// this repository: a multi-precision natural number is a little-endian slice
// of 64-bit limbs, and a signed integer wraps a natural with a sign. The
// multiplication kernel is a crossover ladder — schoolbook, then Karatsuba
// (kara.go), then a three-prime NTT (ntt.go, nttmul.go), with the crossover
// points held in one ladder profile (ladder.go) rather than constants —
// with scratch drawn from a pooled limb arena
// (arena.go); the asymptotically faster Toom-Cook algorithms in
// internal/toom are built on top of these primitives, mirroring the paper's
// model in which the "hardware" provides multiplication of bounded-size
// integers and everything above it is the algorithm under study. The Acc
// accumulator (acc.go) gives those layers allocation-free in-place
// evaluation/interpolation arithmetic, and toom2.go runs their counted
// Toom-2 (Karatsuba) recursion itself on raw limbs, returning its counts.
//
// The package is self-contained (stdlib only) and is cross-checked against
// math/big in its tests.
package bigint

import "math/bits"

// nat is an unsigned multi-precision integer: little-endian limbs with no
// trailing zero limbs (the canonical form). The zero value represents 0.
type nat []uint64

// norm removes trailing zero limbs so that equal numbers have equal
// representations.
func (x nat) norm() nat {
	n := len(x)
	for n > 0 && x[n-1] == 0 {
		n--
	}
	return x[:n]
}

// natCmp compares |x| and |y|: -1 if x<y, 0 if x==y, +1 if x>y.
func natCmp(x, y nat) int {
	switch {
	case len(x) < len(y):
		return -1
	case len(x) > len(y):
		return 1
	}
	for i := len(x) - 1; i >= 0; i-- {
		switch {
		case x[i] < y[i]:
			return -1
		case x[i] > y[i]:
			return 1
		}
	}
	return 0
}

// natAdd returns x + y.
func natAdd(x, y nat) nat {
	if len(x) < len(y) {
		x, y = y, x
	}
	z := make(nat, len(x)+1)
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

// natSub returns x - y; it panics if x < y (callers handle signs).
func natSub(x, y nat) nat {
	if natCmp(x, y) < 0 {
		panic("bigint: natSub underflow")
	}
	z := make(nat, len(x))
	var borrow uint64
	i := 0
	for ; i < len(y); i++ {
		z[i], borrow = bits.Sub64(x[i], y[i], borrow)
	}
	for ; i < len(x); i++ {
		z[i], borrow = bits.Sub64(x[i], 0, borrow)
	}
	if borrow != 0 {
		panic("bigint: natSub borrow out")
	}
	return z.norm()
}

// natMul returns x * y, climbing the crossover ladder (ladder.go). Small
// operands use the schoolbook kernel — the paper's Θ(n²) "hardware multiply"
// and the base case beneath the Toom-Cook recursion; mid-size operands use
// Karatsuba (kara.go); large ones use the three-prime NTT (nttmul.go). All
// tiers draw scratch from the pooled arena, so there is one heap allocation
// regardless of rung: the result.
func natMul(x, y nat) nat {
	if len(x) == 0 || len(y) == 0 {
		return nil
	}
	if len(x) < len(y) {
		x, y = y, x
	}
	return mulLadder(make(nat, len(x)+len(y)), x, y)
}

// natMulWord returns x * w.
func natMulWord(x nat, w uint64) nat {
	if len(x) == 0 || w == 0 {
		return nil
	}
	z := make(nat, len(x)+1)
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

// natDivWord returns (q, r) with x = q*w + r, 0 <= r < w. It panics if w==0.
func natDivWord(x nat, w uint64) (nat, uint64) {
	if w == 0 {
		panic("bigint: division by zero word")
	}
	if len(x) == 0 {
		return nil, 0
	}
	q := make(nat, len(x))
	var r uint64
	for i := len(x) - 1; i >= 0; i-- {
		q[i], r = bits.Div64(r, x[i], w)
	}
	return q.norm(), r
}

// natShl returns x << s for s >= 0.
func natShl(x nat, s uint) nat {
	if len(x) == 0 || s == 0 {
		z := make(nat, len(x))
		copy(z, x)
		return z.norm()
	}
	limbs := s / 64
	bitsOff := s % 64
	z := make(nat, len(x)+int(limbs)+1)
	if bitsOff == 0 {
		copy(z[limbs:], x)
		return z.norm()
	}
	var carry uint64
	for i, xi := range x {
		z[int(limbs)+i] = xi<<bitsOff | carry
		carry = xi >> (64 - bitsOff)
	}
	z[int(limbs)+len(x)] = carry
	return z.norm()
}

// natBitLen returns the number of bits needed to represent x (0 for 0).
func natBitLen(x nat) int {
	if len(x) == 0 {
		return 0
	}
	return (len(x)-1)*64 + bits.Len64(x[len(x)-1])
}

// natBit returns bit i of x (0 or 1).
func natBit(x nat, i int) uint {
	limb := i / 64
	if limb >= len(x) {
		return 0
	}
	return uint(x[limb]>>(i%64)) & 1
}

// natExtract returns bits [lo, lo+width) of x as a fresh nat. It is the
// digit-splitting primitive used by Toom-Cook: digit i of x in base 2^width
// is natExtract(x, i*width, width).
func natExtract(x nat, lo, width int) nat {
	if width <= 0 || lo >= natBitLen(x) {
		return nil
	}
	return natExtractTo(make(nat, (width+63)/64), x, lo, width)
}

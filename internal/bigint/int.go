package bigint

import (
	"fmt"
	"math/big"
	"math/bits"
	"math/rand"
	"strings"
)

// Int is an arbitrary-precision signed integer. The zero value is 0 and is
// ready to use. Int values are immutable: no operation writes into an Int's
// limbs (only an Acc's private buffer is ever reused), so a result may share
// its operand's limbs where the value is unchanged up to sign — Neg, Abs,
// MulInt64 and DivExactInt64 by ±1, Add of a zero — and Ints may be shared
// freely across goroutines (this matters for the machine simulator, where
// messages carry Ints between processors).
type Int struct {
	neg bool // sign; never true for zero
	abs nat  // absolute value
}

// Zero returns the integer 0.
func Zero() Int { return Int{} }

// One returns the integer 1.
func One() Int { return FromInt64(1) }

// FromInt64 returns the Int representing v.
func FromInt64(v int64) Int {
	if v == 0 {
		return Int{}
	}
	neg := v < 0
	var u uint64
	if neg {
		u = uint64(-(v + 1)) + 1 // avoids overflow at MinInt64
	} else {
		u = uint64(v)
	}
	return Int{neg: neg, abs: nat{u}}
}

// FromUint64 returns the Int representing v.
func FromUint64(v uint64) Int {
	if v == 0 {
		return Int{}
	}
	return Int{abs: nat{v}}
}

// FromLimbs builds an Int directly from little-endian 64-bit limbs.
// The limbs are copied.
func FromLimbs(neg bool, limbs []uint64) Int {
	a := make(nat, len(limbs))
	copy(a, limbs)
	a = a.norm()
	if len(a) == 0 {
		return Int{}
	}
	return Int{neg: neg, abs: a}
}

// Limbs returns a copy of x's little-endian limbs (nil for zero).
func (x Int) Limbs() []uint64 {
	if len(x.abs) == 0 {
		return nil
	}
	z := make([]uint64, len(x.abs))
	copy(z, x.abs)
	return z
}

// Sign returns -1, 0, or +1 according to the sign of x.
func (x Int) Sign() int {
	if len(x.abs) == 0 {
		return 0
	}
	if x.neg {
		return -1
	}
	return 1
}

// IsZero reports whether x == 0.
func (x Int) IsZero() bool { return len(x.abs) == 0 }

// BitLen returns the length of |x| in bits (0 for 0).
func (x Int) BitLen() int { return natBitLen(x.abs) }

// Bit returns bit i of |x|.
func (x Int) Bit(i int) uint { return natBit(x.abs, i) }

// WordLen returns the number of 64-bit limbs in |x| (0 for 0). This is the
// paper's "size" measure: the base case of Toom-Cook fires when both operands
// fit within the hardware threshold, expressed here in limbs.
func (x Int) WordLen() int { return len(x.abs) }

// Words is x's size in the cost model's word units, what F and BW charge
// for touching or sending it once: its limb count, and one word for zero.
// It is a branch, not max(1, n), so that inlined after an IsZero test the
// compiler drops it; with max the matrix tile loop kept two CMOVs per
// product.
func (x Int) Words() int64 {
	if l := int64(len(x.abs)); l > 0 {
		return l
	}
	return 1
}

// Neg returns -x.
func (x Int) Neg() Int {
	if len(x.abs) == 0 {
		return Int{}
	}
	return Int{neg: !x.neg, abs: x.abs}
}

// Abs returns |x|.
func (x Int) Abs() Int { return Int{abs: x.abs} }

// Cmp compares x and y: -1 if x<y, 0 if x==y, +1 if x>y.
func (x Int) Cmp(y Int) int {
	switch {
	case x.neg && !y.neg:
		return -1
	case !x.neg && y.neg:
		return 1
	}
	c := natCmp(x.abs, y.abs)
	if x.neg {
		return -c
	}
	return c
}

// Equal reports whether x == y.
func (x Int) Equal(y Int) bool { return x.Cmp(y) == 0 }

// Add returns x + y. A zero operand returns the other one, limbs shared.
func (x Int) Add(y Int) Int {
	switch {
	case len(y.abs) == 0:
		return x
	case len(x.abs) == 0:
		return y
	}
	if x.neg == y.neg {
		z := natAdd(x.abs, y.abs)
		if len(z) == 0 {
			return Int{}
		}
		return Int{neg: x.neg, abs: z}
	}
	// Signs differ: subtract the smaller magnitude from the larger.
	switch natCmp(x.abs, y.abs) {
	case 0:
		return Int{}
	case 1:
		return Int{neg: x.neg, abs: natSub(x.abs, y.abs)}
	default:
		return Int{neg: y.neg, abs: natSub(y.abs, x.abs)}
	}
}

// Sub returns x - y.
func (x Int) Sub(y Int) Int { return x.Add(y.Neg()) }

// Mul returns x * y via the kernel crossover ladder (schoolbook, Karatsuba,
// or NTT depending on operand size; see ladder.go for the live thresholds).
func (x Int) Mul(y Int) Int {
	z := natMul(x.abs, y.abs)
	if len(z) == 0 {
		return Int{}
	}
	return Int{neg: x.neg != y.neg, abs: z}
}

// MulInt64 returns x * v for a small signed scalar v. This is the primitive
// used when applying integer evaluation/coding matrices to digit vectors,
// whose entries are mostly 0 and ±1: v = ±1 returns x or -x over x's limbs.
func (x Int) MulInt64(v int64) Int {
	switch {
	case v == 0 || len(x.abs) == 0:
		return Int{}
	case v == 1:
		return x
	case v == -1:
		return x.Neg()
	}
	neg := x.neg
	var u uint64
	if v < 0 {
		neg = !neg
		u = uint64(-(v + 1)) + 1
	} else {
		u = uint64(v)
	}
	return Int{neg: neg, abs: natMulWord(x.abs, u)}
}

// QuoRemWord returns (q, r) with x = q*w + r and 0 <= r < w, for positive x.
// For negative x it returns the quotient and remainder of |x| with q negated
// (truncated division). It panics if w == 0.
func (x Int) QuoRemWord(w uint64) (Int, uint64) {
	q, r := natDivWord(x.abs, w)
	if len(q) == 0 {
		return Int{}, r
	}
	return Int{neg: x.neg, abs: q}, r
}

// RemWord returns |x| mod w without allocating. It panics if w == 0.
func (x Int) RemWord(w uint64) uint64 {
	if w == 0 {
		panic("bigint: division by zero word")
	}
	var r uint64
	for i := len(x.abs) - 1; i >= 0; i-- {
		_, r = bits.Div64(r, x.abs[i], w)
	}
	return r
}

// DivExactInt64 returns x / v, panicking unless the division is exact.
// Toom-Cook interpolation divides by small constants (2, 3, 6, ...) that are
// guaranteed to divide exactly; a remainder here indicates a logic error, so
// it fails loudly rather than returning a corrupted product.
func (x Int) DivExactInt64(v int64) Int {
	if v == 0 {
		panic("bigint: DivExactInt64 by zero")
	}
	neg := x.neg
	var u uint64
	if v < 0 {
		neg = !neg
		u = uint64(-(v + 1)) + 1
	} else {
		u = uint64(v)
	}
	if u == 1 {
		return Int{neg: neg && len(x.abs) != 0, abs: x.abs} // Ints are immutable: sharing the limbs is safe
	}
	q, r := natDivWord(x.abs, u)
	if r != 0 {
		panic(fmt.Sprintf("bigint: DivExactInt64: %v not divisible by %d", x, v))
	}
	if len(q) == 0 {
		return Int{}
	}
	return Int{neg: neg, abs: q}
}

// Shl returns x << s.
func (x Int) Shl(s uint) Int {
	z := natShl(x.abs, s)
	if len(z) == 0 {
		return Int{}
	}
	return Int{neg: x.neg, abs: z}
}

// Extract returns bits [lo, lo+width) of |x| as a non-negative Int.
func (x Int) Extract(lo, width int) Int {
	z := natExtract(x.abs, lo, width)
	if len(z) == 0 {
		return Int{}
	}
	return Int{abs: z}
}

// Int64 returns the value of x as an int64 and whether it fits.
func (x Int) Int64() (int64, bool) {
	switch len(x.abs) {
	case 0:
		return 0, true
	case 1:
		if x.neg {
			if x.abs[0] > 1<<63 {
				return 0, false
			}
			return -int64(x.abs[0]-1) - 1, true
		}
		if x.abs[0] >= 1<<63 {
			return 0, false
		}
		return int64(x.abs[0]), true
	default:
		return 0, false
	}
}

// String formats x in decimal.
func (x Int) String() string {
	if len(x.abs) == 0 {
		return "0"
	}
	// Repeatedly divide by 10^19 (largest power of ten in a uint64).
	const chunk = 10000000000000000000 // 10^19
	var groups []uint64
	n := x.abs
	for len(n) > 0 {
		var r uint64
		n, r = natDivWord(n, chunk)
		groups = append(groups, r)
	}
	var b strings.Builder
	if x.neg {
		b.WriteByte('-')
	}
	fmt.Fprintf(&b, "%d", groups[len(groups)-1])
	for i := len(groups) - 2; i >= 0; i-- {
		fmt.Fprintf(&b, "%019d", groups[i])
	}
	return b.String()
}

// BigWordsPerLimb is the number of math/big words one 64-bit limb takes:
// 1 where a big.Word has 64 bits, 2 where it has 32.
const BigWordsPerLimb = 64 / bits.UintSize

// ToBig converts x to a *math/big.Int (test oracle and public-API bridge).
func (x Int) ToBig() *big.Int {
	return x.ToBigOn(new(big.Int), make([]big.Word, len(x.abs)*BigWordsPerLimb))
}

// ToBigOn sets z to x over words, which must hold exactly
// x.WordLen()·BigWordsPerLimb entries and becomes z's limb storage, and
// returns z. Cap words (a three-index slice) when it is cut from a larger
// slab: z then reallocates instead of growing into its neighbours.
func (x Int) ToBigOn(z *big.Int, words []big.Word) *big.Int {
	if bits.UintSize == 32 {
		for i, l := range x.abs {
			words[2*i], words[2*i+1] = big.Word(l), big.Word(l>>32)
		}
	} else {
		for i, l := range x.abs {
			words[i] = big.Word(l)
		}
	}
	z.SetBits(words)
	if x.neg {
		z.Neg(z)
	}
	return z
}

// FromBig converts a *math/big.Int to an Int.
func FromBig(v *big.Int) Int {
	z, _ := AppendBig(make([]uint64, 0, (len(v.Bits())+BigWordsPerLimb-1)/BigWordsPerLimb), v)
	return z
}

// AppendBig converts v onto the end of slab and returns it as an Int over
// the copied (capped) limbs, with the extended slab: converting a batch of
// values through one reserved slab costs one allocation.
func AppendBig(slab []uint64, v *big.Int) (Int, []uint64) {
	off := len(slab)
	words := v.Bits()
	if bits.UintSize == 32 {
		for i := 0; i < len(words); i += 2 {
			l := uint64(words[i])
			if i+1 < len(words) {
				l |= uint64(words[i+1]) << 32
			}
			slab = append(slab, l)
		}
	} else {
		for _, w := range words {
			slab = append(slab, uint64(w))
		}
	}
	abs := nat(slab[off:]).norm()
	slab = slab[:off+len(abs)]
	if len(abs) == 0 {
		return Int{}, slab
	}
	return Int{neg: v.Sign() < 0, abs: abs[:len(abs):len(abs)]}, slab
}

// Random returns a uniformly random non-negative Int with exactly the given
// number of bits (the top bit is set), using the provided source. bits must
// be positive.
func Random(rng *rand.Rand, bits int) Int {
	if bits <= 0 {
		panic("bigint: Random needs bits > 0")
	}
	limbs := (bits + 63) / 64
	z := make(nat, limbs)
	for i := range z {
		z[i] = rng.Uint64()
	}
	top := bits % 64
	if top == 0 {
		top = 64
	}
	z[limbs-1] &= (1 << uint(top)) - 1
	z[limbs-1] |= 1 << uint(top-1) // force exact bit length
	return Int{abs: z.norm()}
}

// Sum returns the sum of all xs (0 for an empty list).
func Sum(xs ...Int) Int {
	var z Int
	for _, x := range xs {
		z = z.Add(x)
	}
	return z
}

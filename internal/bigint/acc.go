package bigint

import (
	"fmt"
	"slices"
	"sync"
)

// Acc is a reusable signed accumulator for the hot combination loops of the
// Toom-Cook stack (evaluation, interpolation, recomposition) and of the
// matrix tier's tile kernels (dot products and signed tile sums). Where the
// immutable Int API allocates a fresh value per operation, an Acc mutates a
// private limb buffer in place and hands the finished value off with Take,
// so an entire scalar-by-big matrix row costs O(1) heap allocations. The
// Toom-Cook workspace keeps Accs as long-lived frame slots instead: the
// Acc-to-Acc operations (SetBits, SetSum, AddMulAcc, SetMul, AddShl, ...)
// combine them in place, and Value copies a result out without giving up
// the buffer. A matrix tile with an entry wider than five limbs runs every
// entry's dot product through one Acc (AddProd) and copies each finished
// entry out with AppendValue, so a whole tile of values shares one limb
// slab; narrower tiles run on the fixed-width Dot (dot.go) the same way.
//
// The zero value is ready to use; NewAcc/Release additionally recycle the
// internal buffers through a sync.Pool. An Acc is not safe for concurrent
// use. Ints passed in are only read; Ints returned by Take are freshly
// owned and never aliased by later Acc operations.
type Acc struct {
	neg bool
	abs nat // canonical magnitude, owned by the Acc until Take
	tmp nat // scratch for word products, never escapes
}

var accPool = sync.Pool{New: func() any { return new(Acc) }}

// NewAcc returns a zeroed accumulator from the pool.
func NewAcc() *Acc { return accPool.Get().(*Acc) }

// Release resets a and returns it to the pool, keeping its buffers for the
// next user. The caller must not use a afterwards.
func (a *Acc) Release() {
	a.Reset()
	accPool.Put(a)
}

// Reset sets a to zero, retaining capacity.
func (a *Acc) Reset() {
	a.neg = false
	a.abs = a.abs[:0]
}

// IsZero reports whether the accumulated value is zero.
func (a *Acc) IsZero() bool { return len(a.abs) == 0 }

// WordLen returns the number of limbs in |a| (0 for zero) — the same size
// measure as Int.WordLen, used by the cost model's F accounting.
func (a *Acc) WordLen() int { return len(a.abs) }

// Words is Int.Words for the accumulated value: the cost model's charge for
// touching it once.
func (a *Acc) Words() int64 {
	if l := int64(len(a.abs)); l > 0 {
		return l
	}
	return 1
}

// add combines a signed magnitude into the accumulator in place.
func (a *Acc) add(x nat, xneg bool) {
	if len(x) != 0 {
		a.setAdd(a.abs, a.neg, x, xneg)
	}
}

// Add accumulates a += x.
func (a *Acc) Add(x Int) { a.add(x.abs, x.neg) }

// Sub accumulates a -= x.
func (a *Acc) Sub(x Int) { a.add(x.abs, !x.neg) }

// AddMul accumulates a += x·c for a small signed scalar c — the single
// operation evaluation and interpolation matrices are made of. The word
// product lands in internal scratch; no Int is materialized.
func (a *Acc) AddMul(x Int, c int64) { a.addMul(x.abs, x.neg, c) }

// AddMulAcc accumulates a += x·c for a small signed scalar c; x may be a
// itself.
func (a *Acc) AddMulAcc(x *Acc, c int64) { a.addMul(x.abs, x.neg, c) }

func (a *Acc) addMul(x nat, xneg bool, c int64) {
	if c == 0 || len(x) == 0 {
		return
	}
	neg := xneg
	var u uint64
	if c < 0 {
		neg = !neg
		u = uint64(-(c + 1)) + 1
	} else {
		u = uint64(c)
	}
	switch {
	case u == 1:
		a.add(x, neg)
	case len(a.abs) == 0:
		a.abs = natMulWordTo(a.abs, x, u)
		a.neg = neg
	default:
		a.tmp = natMulWordTo(a.tmp, x, u)
		a.add(a.tmp, neg)
	}
}

// AddProd accumulates a += x·y — one step of a dot product of any operand
// length; no Int is materialized. The product goes through the kernel
// ladder into internal scratch and is added in place. Dot.AddProd is the
// fixed-width step for operands of at most five limbs.
func (a *Acc) AddProd(x, y Int) {
	if len(x.abs) == 0 || len(y.abs) == 0 {
		return
	}
	a.tmp = natMulTo(a.tmp, x.abs, y.abs)
	a.add(a.tmp, x.neg != y.neg)
}

// AddShl accumulates a += x·2^s; x must not be a. When the signs agree
// (always, when recomposing the nonnegative coefficients of a product of
// nonnegative digit vectors) the shifted limbs are added in place without
// materializing x·2^s.
func (a *Acc) AddShl(x *Acc, s uint) {
	switch {
	case len(x.abs) == 0:
	case len(a.abs) == 0:
		a.abs = natShlTo(a.abs, x.abs, s)
		a.neg = x.neg
	case a.neg == x.neg:
		a.abs = natAddShlTo(a.abs, x.abs, s)
	default:
		a.tmp = natShlTo(a.tmp, x.abs, s)
		a.add(a.tmp, x.neg)
	}
}

// SetSum sets a = x + y in one pass; x or y may be a.
func (a *Acc) SetSum(x, y *Acc) { a.setAdd(x.abs, x.neg, y.abs, y.neg) }

// SetDiff sets a = x − y in one pass; x or y may be a.
func (a *Acc) SetDiff(x, y *Acc) { a.setAdd(x.abs, x.neg, y.abs, !y.neg) }

// setAdd sets a to the sum of two signed magnitudes, writing a's buffer
// directly instead of copying one operand first.
func (a *Acc) setAdd(x nat, xneg bool, y nat, yneg bool) {
	if xneg == yneg {
		a.abs = natAddTo(a.abs, x, y)
		a.neg = xneg && len(a.abs) != 0
		return
	}
	switch natCmp(x, y) {
	case 0:
		a.abs = a.abs[:0]
		a.neg = false
	case 1:
		a.abs = natSubTo(a.abs, x, y)
		a.neg = xneg
	default:
		a.abs = natSubTo(a.abs, y, x)
		a.neg = yneg
	}
}

// SetInt loads x into a, reusing a's buffer.
func (a *Acc) SetInt(x Int) {
	a.abs = natSet(a.abs, x.abs)
	a.neg = x.neg
}

// SetBits sets a to bits [lo, lo+width) of |x| (a non-negative value) — the
// in-place counterpart of Int.Extract, used to split Toom-Cook digits. x
// must not be a.
func (a *Acc) SetBits(x *Acc, lo, width int) {
	a.abs = natExtractTo(a.abs, x.abs, lo, width)
	a.neg = false
}

// SetMul sets a = x·y through the kernel ladder (schoolbook, Karatsuba or
// NTT, scratch from the pooled arena), writing into a's buffer. a may be x
// or y.
func (a *Acc) SetMul(x, y *Acc) {
	neg := x.neg != y.neg
	if a == x || a == y {
		a.tmp = natMulTo(a.tmp, x.abs, y.abs)
		a.abs, a.tmp = a.tmp, a.abs
	} else {
		a.abs = natMulTo(a.abs, x.abs, y.abs)
	}
	a.neg = neg && len(a.abs) != 0
}

// Neg negates the accumulator in place.
func (a *Acc) Neg() { a.neg = !a.neg && len(a.abs) != 0 }

// Sign returns -1, 0, or +1 according to the sign of the accumulated value.
func (a *Acc) Sign() int {
	switch {
	case len(a.abs) == 0:
		return 0
	case a.neg:
		return -1
	}
	return 1
}

// BitLen returns the length of |a| in bits (0 for zero).
func (a *Acc) BitLen() int { return natBitLen(a.abs) }

// Shl shifts the accumulator left by s bits in place.
func (a *Acc) Shl(s uint) {
	a.abs = natShlTo(a.abs, a.abs, s)
}

// Scale multiplies the accumulator by a small signed scalar v in place.
func (a *Acc) Scale(v int64) {
	if len(a.abs) == 0 {
		return
	}
	if v == 0 {
		a.Reset()
		return
	}
	var u uint64
	if v < 0 {
		a.neg = !a.neg
		u = uint64(-(v + 1)) + 1
	} else {
		u = uint64(v)
	}
	if u != 1 {
		a.abs = natMulWordTo(a.abs, a.abs, u)
	}
}

// DivExact divides the accumulator by v in place, panicking unless the
// division is exact (mirroring Int.DivExactInt64: interpolation divides by
// constants that provably divide, so a remainder is a logic error).
func (a *Acc) DivExact(v int64) {
	if v == 0 {
		panic("bigint: Acc.DivExact by zero")
	}
	if len(a.abs) == 0 {
		return
	}
	var u uint64
	if v < 0 {
		a.neg = !a.neg
		u = uint64(-(v + 1)) + 1
	} else {
		u = uint64(v)
	}
	if u == 1 {
		return // ±1: the sign flip above is the whole division
	}
	q, r := natDivWordTo(a.abs, a.abs, u)
	if r != 0 {
		panic(fmt.Sprintf("bigint: Acc.DivExact: value not divisible by %d", v))
	}
	a.abs = q
	if len(q) == 0 {
		a.neg = false
	}
}

// Take returns the accumulated value as an immutable Int and resets the
// accumulator. Ownership of the limb buffer transfers to the returned Int
// (no copy); the Acc starts its next accumulation with a fresh buffer.
func (a *Acc) Take() Int {
	z := a.abs
	a.abs = nil
	if len(z) == 0 {
		a.neg = false
		return Int{}
	}
	out := Int{neg: a.neg, abs: z}
	a.neg = false
	return out
}

// AppendValue copies the accumulated value onto the end of slab and returns
// it as an Int over the copied limbs, with the extended slab; the
// accumulator is not disturbed. The Int's limbs are capped, so later
// appends never write into them: a caller that reserves the slab's
// capacity for a batch of values (a matrix tile) pays one allocation for
// all of them instead of one per value.
func (a *Acc) AppendValue(slab []uint64) (Int, []uint64) {
	if len(a.abs) == 0 {
		return Int{}, slab
	}
	off := len(slab)
	slab = append(slab, a.abs...)
	return Int{neg: a.neg, abs: nat(slab[off:len(slab):len(slab)])}, slab
}

// AppendEntry copies out one entry of a linear combination built in a by
// Add/AddMul calls, given how many nonzero terms reached a and the last of
// them (lone, with coefficient c). A lone term with coefficient ±1 (a unit
// row, or a zero addend) comes back as lone·c sharing lone's limbs; zero
// comes back as zero; anything else is copied onto slab as by AppendValue.
// A nil slab is first reserved for rest entries the size of this one plus a
// carry limb each, so a vector of like-sized entries costs one allocation.
func (a *Acc) AppendEntry(slab []uint64, rest, terms int, lone Int, c int64) (Int, []uint64) {
	switch {
	case terms == 1 && (c == 1 || c == -1):
		return lone.MulInt64(c), slab
	case len(a.abs) == 0:
		return Int{}, slab
	case slab == nil:
		slab = make([]uint64, 0, rest*(len(a.abs)+1))
	}
	return a.AppendValue(slab)
}

// AppendBits copies bits [lo, lo+width) of |a|, carrying a's sign, onto the
// end of slab and returns them as an Int over the copied (capped) limbs,
// with the extended slab; the accumulator is not disturbed. It is the slab
// form of Int.Extract: a caller that reserves the slab splits a whole
// accumulated value into its digit vector with one allocation.
func (a *Acc) AppendBits(slab []uint64, lo, width int) (Int, []uint64) {
	off := len(slab)
	if width > 0 && lo/64 < len(a.abs) {
		slab = slices.Grow(slab, (width+63)/64)
	}
	z := natExtractTo(nat(slab[off:off]), a.abs, lo, width)
	if len(z) == 0 {
		return Int{}, slab[:off]
	}
	return Int{neg: a.neg, abs: z[:len(z):len(z)]}, slab[:off+len(z)]
}

// Value returns the accumulated value as an Int without disturbing the
// accumulator (the limbs are copied).
func (a *Acc) Value() Int {
	if len(a.abs) == 0 {
		return Int{}
	}
	z := make(nat, len(a.abs))
	copy(z, a.abs)
	return Int{neg: a.neg, abs: z}
}

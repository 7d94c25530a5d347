package bigint

// Number-theoretic transforms over three 62-bit primes — the top rung of the
// multiplication ladder (see nttmul.go for the multiplication built on them
// and ladder.go for the crossover thresholds).
//
// Each prime p = c·2^s + 1 has a large power of two dividing p−1, so the
// multiplicative group contains 2^m-th roots of unity for every transform
// size 2^m ≤ 2^s the ladder will ever see. The transforms are iterative
// radix-2 butterflies in the decimation style that needs no bit-reversal
// permutation: the forward pass (Cooley-Tukey shape, multiply-then-add/sub)
// leaves values in transposed order and the inverse pass (Gentleman-Sande
// shape, add/sub-then-multiply) consumes exactly that order, so
// forward+pointwise+inverse is a cyclic convolution with both passes walking
// memory sequentially.
//
// Twiddle factors are looked up, not computed in the transform loops. Block
// s of a stage (the run of butterflies that share one twiddle) multiplies by
// w(s) = Π root[j+2]^(bit j of s), the same value at every stage and every
// transform size, so one table per prime of m entries serves every transform
// of up to 2m points (nttTwiddles). The table holds each twiddle with its
// Shoup constant, forward and inverse, and is grown inside the first product
// that needs a longer one: readers load the published table through an
// atomic pointer without a lock, and growth, which builds a whole new table,
// is serialized per prime.
//
// Arithmetic is lazy modular arithmetic in [0, 2p) (Harvey):
//
//   - twiddle multiplies use Shoup's trick — the tabulated ⌊w·2^64/p⌋
//     turns x·w mod p into two multiplies and one subtract, with the
//     result in [0, 2p) for any 64-bit x;
//   - the pointwise stage uses Montgomery REDC without ever entering the
//     Montgomery domain: REDC(a·b) = a·b·R⁻¹ mod p, and the stray R⁻¹ is
//     folded into the final N⁻¹ scaling constant;
//   - values leave a butterfly in [0, 2p) again, so no reduction passes are
//     needed between stages, and 4p < 2^64 keeps every intermediate in one
//     word.

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/workpool"
)

// nttPrime is one CRT modulus with its transform constants. The constants
// are written once during package init and read-only afterwards; the
// twiddle table is published through tw and never written once published,
// so a value is safe for concurrent use by parallel butterfly workers.
type nttPrime struct {
	p     uint64   // modulus, c·2^s + 1, p < 2^62
	twoP  uint64   // 2p, the lazy-domain bound
	g     uint64   // a primitive root mod p
	s     uint     // 2-adic valuation of p−1 (max log2 transform size)
	pInv  uint64   // −p⁻¹ mod 2^64 (Montgomery REDC constant)
	r     uint64   // 2^64 mod p (the Montgomery R)
	root  []uint64 // root[i] is a primitive 2^i-th root of unity, i ≤ s
	iroot []uint64 // iroot[i] = root[i]⁻¹

	tw   atomic.Pointer[nttTwiddles] // the block twiddle table, nil until first use
	twMu sync.Mutex                  // serializes growth of tw
}

// nttPrimes are the three CRT moduli. Their product is ≈2^184.3, so CRT
// recombination is exact while min(len(x), len(y))·(2^64−1)² stays below it —
// i.e. for operands up to 2^56 limbs, far beyond any addressable size. The
// smallest 2-adic valuation (54) likewise caps the transform at 2^54 points.
// Primality, root order, and valuation are pinned by TestNTTPrimeProperties.
var nttPrimes = [3]nttPrime{
	{p: 4179340454199820289, g: 3, s: 57}, // 29·2^57 + 1
	{p: 2936346957045563393, g: 3, s: 54}, // 163·2^54 + 1
	{p: 2485986994308513793, g: 5, s: 55}, // 69·2^55 + 1
}

// nttCRT holds the Garner mixed-radix recombination constants for the three
// primes, with Shoup precomputations for the fixed multipliers.
var nttCRT struct {
	inv12, inv12Shoup   uint64 // p1⁻¹ mod p2, and its Shoup constant
	p1mod3, p1mod3Shoup uint64 // p1 mod p3
	inv123, inv123Shoup uint64 // (p1·p2)⁻¹ mod p3
	p12hi, p12lo        uint64 // p1·p2 as a 128-bit value
}

// nttPool, when set, is the pool the butterfly stages fan out on in place of
// workpool.Shared, so tests can swap in a wider pool to exercise the
// parallel paths on any host.
var nttPool *workpool.Pool

// nttPoolMu serializes tests that swap nttPool; the kernels only read it.
var nttPoolMu sync.Mutex

func init() {
	for i := range nttPrimes {
		nttPrimes[i].precompute()
	}
	p1, p2, p3 := nttPrimes[0].p, nttPrimes[1].p, nttPrimes[2].p
	nttCRT.inv12 = invMod(p1%p2, p2)
	nttCRT.inv12Shoup = shoupOf(nttCRT.inv12, p2)
	nttCRT.p1mod3 = p1 % p3
	nttCRT.p1mod3Shoup = shoupOf(nttCRT.p1mod3, p3)
	nttCRT.inv123 = invMod(mulMod(p1%p3, p2%p3, p3), p3)
	nttCRT.inv123Shoup = shoupOf(nttCRT.inv123, p3)
	nttCRT.p12hi, nttCRT.p12lo = bits.Mul64(p1, p2)
}

// precompute fills the derived constants of one prime.
func (pr *nttPrime) precompute() {
	p := pr.p
	pr.twoP = 2 * p
	pr.r = (0 - p) % p // 2^64 mod p

	// −p⁻¹ mod 2^64 by Newton iteration: each step doubles correct low bits.
	inv := p // p is odd, so p·p ≡ 1 mod 8 seeds 3 bits
	for i := 0; i < 5; i++ {
		inv *= 2 - p*inv
	}
	pr.pInv = 0 - inv

	// root[i] is a primitive 2^i-th root of unity: the square of root[i+1].
	pr.root = make([]uint64, pr.s+1)
	pr.iroot = make([]uint64, pr.s+1)
	pr.root[pr.s] = powMod(pr.g, (p-1)>>pr.s, p)
	pr.iroot[pr.s] = invMod(pr.root[pr.s], p)
	for i := int(pr.s) - 1; i >= 0; i-- {
		pr.root[i] = mulMod(pr.root[i+1], pr.root[i+1], p)
		pr.iroot[i] = mulMod(pr.iroot[i+1], pr.iroot[i+1], p)
	}
}

// nttTwiddles is one prime's table of block twiddles. Block s of every
// forward stage multiplies by w[s] = Π root[j+2]^(bit j of s), and block s
// of every inverse stage by iw[s] = w[s]⁻¹; ws and iws hold their Shoup
// constants. A table of m entries serves every transform of up to 2m
// points, and a published table is never written again.
type nttTwiddles struct {
	w, ws, iw, iws []uint64
}

// twiddles returns pr's twiddle table for an n-point transform (n ≥ 2 a
// power of two within the prime's root range), first growing it to n/2
// entries if it is shorter. The published table is read without a lock;
// growth, once per doubling of the largest transform seen, builds a new
// table under pr.twMu (so all growth together costs at most twice the
// final table's fill).
func (pr *nttPrime) twiddles(n int) *nttTwiddles {
	if t := pr.tw.Load(); t != nil && 2*len(t.w) >= n {
		return t
	}
	pr.twMu.Lock()
	defer pr.twMu.Unlock()
	if t := pr.tw.Load(); t != nil && 2*len(t.w) >= n {
		return t
	}
	m := n / 2
	slab := make([]uint64, 4*m)
	t := &nttTwiddles{w: slab[:m:m], ws: slab[m : 2*m : 2*m], iw: slab[2*m : 3*m : 3*m], iws: slab[3*m:]}
	pr.fillTwiddles(t.w, t.ws, t.iw, t.iws)
	pr.tw.Store(t)
	return t
}

// fillTwiddles computes every entry of a twiddle table. Entry 0 is 1;
// entry s with top bit 2^k is entry s − 2^k times root[k+2] (iroot for the
// inverse), one mulMod and one shoupOf per twiddle.
func (pr *nttPrime) fillTwiddles(w, ws, iw, iws []uint64) {
	p := pr.p
	for s := range w {
		if s == 0 {
			w[0], iw[0] = 1, 1
		} else {
			k := bits.Len(uint(s)) - 1
			w[s] = mulMod(w[s-1<<k], pr.root[k+2], p)
			iw[s] = mulMod(iw[s-1<<k], pr.iroot[k+2], p)
		}
		ws[s] = shoupOf(w[s], p)
		iws[s] = shoupOf(iw[s], p)
	}
}

// mulMod returns a·b mod p exactly (init and table-growth path; the
// transform loops use shoupMul/redc instead of the hardware divide).
func mulMod(a, b, p uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, rem := bits.Div64(hi, lo, p)
	return rem
}

// powMod returns b^e mod p by square-and-multiply.
func powMod(b, e, p uint64) uint64 {
	z := uint64(1)
	b %= p
	for ; e > 0; e >>= 1 {
		if e&1 == 1 {
			z = mulMod(z, b, p)
		}
		b = mulMod(b, b, p)
	}
	return z
}

// invMod returns a⁻¹ mod p for prime p (Fermat).
func invMod(a, p uint64) uint64 { return powMod(a, p-2, p) }

// shoupOf returns ⌊w·2^64/p⌋, the Shoup precomputation for multiplying by a
// fixed w < p.
func shoupOf(w, p uint64) uint64 {
	q, _ := bits.Div64(w, 0, p)
	return q
}

// shoupMul returns x·w mod p, lazily in [0, 2p), for any 64-bit x and w < p
// with wShoup = shoupOf(w, p). Two multiplies, no divide.
func shoupMul(x, w, wShoup, p uint64) uint64 {
	q, _ := bits.Mul64(x, wShoup)
	return x*w - q*p
}

// redc returns a·b·2^−64 mod p, lazily in [0, 2p), for a, b in [0, 2p)
// (Montgomery reduction; valid while 4p² < 2^64·p, i.e. p < 2^62).
func redc(a, b, p, pInv uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	m := lo * pInv
	mh, ml := bits.Mul64(m, p)
	_, carry := bits.Add64(lo, ml, 0)
	return hi + mh + carry
}

// nttParMinHalf is the smallest butterfly half-block length worth splitting
// across pool workers: below it the fork/join overhead dominates the work.
const nttParMinHalf = 1 << 13

// forward runs the in-place forward transform of a (length n a power of
// two) in the no-bit-reversal order, with twiddles from w and their Shoup
// constants ws (a table of at least n/2 entries). Input values must be in
// [0, 2p); output values are in [0, 2p). When sp is non-nil, the long
// early-stage blocks are partitioned across its pool's workers (the twiddle
// is constant within a block, so chunks of the half-block range are
// independent).
func (pr *nttPrime) forward(a, w, ws []uint64, sp *nttSplit) {
	h := bits.Len(uint(len(a))) - 1
	for st := 0; st < h; st++ {
		half := 1 << (h - st - 1)
		for s := 0; s < 1<<st; s++ {
			offset := s << (h - st)
			if sp != nil && half >= nttParMinHalf {
				pr.splitBlock(a, offset, half, w[s], ws[s], false, sp)
			} else {
				pr.forwardRange(a, offset, offset+half, half, w[s], ws[s])
			}
		}
	}
}

// forwardRange applies one stage's butterflies (l, r) → (l + rot·r,
// l − rot·r), all lazily in [0, 2p), to the pairs (a[i], a[i+half]) for i in
// [i0, i1). half is the butterfly stride; a sub-range of a block (the
// parallel chunks) keeps the full block's stride.
func (pr *nttPrime) forwardRange(a []uint64, i0, i1, half int, rot, rotShoup uint64) {
	p, twoP := pr.p, pr.twoP
	for i := i0; i < i1; i++ {
		l := a[i]
		t := shoupMul(a[i+half], rot, rotShoup, p)
		u0 := l + t
		if u0 >= twoP {
			u0 -= twoP
		}
		u1 := l + twoP - t
		if u1 >= twoP {
			u1 -= twoP
		}
		a[i], a[i+half] = u0, u1
	}
}

// splitBlock splits one long block's butterfly range, forward or inverse,
// across sp's pool; the chunks share the block's twiddle and stride, so
// they are independent. Each chunk is a record of sp forked through its
// bound work method, so the split allocates nothing in steady state.
func (pr *nttPrime) splitBlock(a []uint64, offset, half int, rot, rotShoup uint64, inverse bool, sp *nttSplit) {
	chunk := max((half+sp.pool.Capacity()-1)/sp.pool.Capacity(), nttParMinHalf/2)
	n := 0
	for lo := 0; lo < half; lo += chunk {
		if n == len(sp.chunks) {
			c := new(nttChunk)
			c.run = c.work
			sp.chunks = append(sp.chunks, c)
		}
		c := sp.chunks[n]
		c.pr, c.a, c.half, c.rot, c.rotShoup, c.inverse = pr, a, half, rot, rotShoup, inverse
		c.lo, c.hi = offset+lo, offset+min(lo+chunk, half)
		n++
	}
	for _, c := range sp.chunks[:n] {
		sp.pool.Fork(&sp.wg, c.run)
	}
	sp.wg.Wait()
	for _, c := range sp.chunks[:n] {
		c.pr, c.a = nil, nil
	}
}

// nttSplit is the block-split fan-out of one transform task: the pool, the
// join and a chunk record per pool slot used. Each of nttMulTo's per-prime
// tasks owns one and runs its transforms one after another, so the records
// grown by its first split serve every later one, however the three tasks
// overlap in time.
type nttSplit struct {
	pool   *workpool.Pool
	wg     sync.WaitGroup
	chunks []*nttChunk
}

// nttChunk is one butterfly sub-range [lo, hi) of a split block; run is its
// work method, bound once when the record is made.
type nttChunk struct {
	pr            *nttPrime
	a             []uint64
	lo, hi, half  int
	rot, rotShoup uint64
	inverse       bool
	run           func()
}

func (c *nttChunk) work() { c.pr.runChunk(c) }

// runChunk applies one chunk's butterflies. c.rot is below p: modbound
// proves it at every store into the record (splitBlock's, whose callers
// owe the twiddle's bound) and assumes it here.
func (pr *nttPrime) runChunk(c *nttChunk) {
	if c.inverse {
		pr.inverseRange(c.a, c.lo, c.hi, c.half, c.rot, c.rotShoup)
	} else {
		pr.forwardRange(c.a, c.lo, c.hi, c.half, c.rot, c.rotShoup)
	}
}

// inverse runs the in-place inverse transform (unscaled: the result is N
// times the inverse DFT), consuming the forward pass's order, with the
// inverse twiddles iw and their Shoup constants iws. Values stay in
// [0, 2p).
func (pr *nttPrime) inverse(a, iw, iws []uint64, sp *nttSplit) {
	h := bits.Len(uint(len(a))) - 1
	for st := h; st >= 1; st-- {
		half := 1 << (h - st)
		for s := 0; s < 1<<(st-1); s++ {
			offset := s << (h - st + 1)
			if sp != nil && half >= nttParMinHalf {
				pr.splitBlock(a, offset, half, iw[s], iws[s], true, sp)
			} else {
				pr.inverseRange(a, offset, offset+half, half, iw[s], iws[s])
			}
		}
	}
}

// inverseRange applies one inverse stage's butterflies (l, r) → (l + r,
// irot·(l − r)), all lazily in [0, 2p), to the pairs (a[i], a[i+half]) for i
// in [i0, i1); half is the butterfly stride, as in forwardRange.
func (pr *nttPrime) inverseRange(a []uint64, i0, i1, half int, irot, irotShoup uint64) {
	p, twoP := pr.p, pr.twoP
	for i := i0; i < i1; i++ {
		l := a[i]
		r := a[i+half]
		u0 := l + r
		if u0 >= twoP {
			u0 -= twoP
		}
		a[i] = u0
		a[i+half] = shoupMul(l+twoP-r, irot, irotShoup, p)
	}
}

// Dirty fixture: each kernel carries one seeded lazy-arithmetic defect the
// interval engine must catch — a dropped conditional subtract, swapped
// Shoup arguments, an unreduced value stored into the twiddle table, a
// table's Shoup constant handed over as the twiddle, a missing pre-load
// reduction, a REDC operand outside [0, 2p), a split chunk's twiddle
// filed and read from the wrong field, a dropped final reduction
// before CRT, an out-of-contract Garner constant, and a subtraction that
// can underflow.
package bigint

type nttPrime struct {
	p, twoP, g, s, pInv, r uint64
	root, iroot            []uint64
}

var nttPrimes = [3]nttPrime{
	{p: 4179340454199820289, g: 3, s: 57},
	{p: 2936346957045563393, g: 3, s: 53},
	{p: 2485986994308513793, g: 11, s: 52},
}

var nttCRT struct {
	inv12, inv12Shoup   uint64
	p1mod3, p1mod3Shoup uint64
	inv123, inv123Shoup uint64
	p12hi, p12lo        uint64
}

func init() {
	p1 := nttPrimes[0].p
	p2 := nttPrimes[1].p
	p3 := nttPrimes[2].p
	nttCRT.inv12 = invMod(p1%p2, p2)
	nttCRT.inv12Shoup = shoupOf(nttCRT.inv12, p2)
	nttCRT.p1mod3 = p1 // want "init assigns nttCRT.p1mod3 a value not provably within its contract"
	nttCRT.p1mod3Shoup = shoupOf(nttCRT.p1mod3%p3, p3)
	nttCRT.inv123 = invMod(mulMod(p1%p3, p2%p3, p3), p3)
	nttCRT.inv123Shoup = shoupOf(nttCRT.inv123, p3)
	nttCRT.p12hi, nttCRT.p12lo = Mul64(p1, p2)
}

func Mul64(a, b uint64) (hi, lo uint64)         { return 0, 0 }
func Add64(a, b, carry uint64) (uint64, uint64) { return 0, 0 }
func Len(x uint) int                            { return 0 }

func mulMod(a, b, p uint64) uint64           { return 0 }
func invMod(a, p uint64) uint64              { return 0 }
func shoupOf(w, p uint64) uint64             { return 0 }
func shoupMul(x, w, wShoup, p uint64) uint64 { return 0 }
func redc(a, b, p, pInv uint64) uint64       { return 0 }

// forwardRange drops the conditional subtract on the + butterfly leg, so
// the store can reach 4p−2.
func (pr *nttPrime) forwardRange(a []uint64, i0, i1, half int, rot, rotShoup uint64) {
	p, twoP := pr.p, pr.twoP
	for i := i0; i < i1; i++ {
		l := a[i]
		t := shoupMul(a[i+half], rot, rotShoup, p)
		u0 := l + t
		u1 := l + twoP - t
		if u1 >= twoP {
			u1 -= twoP
		}
		a[i], a[i+half] = u0, u1 // want "store into lazy buffer a not provably below 2p"
	}
}

// inverseRange swaps the Shoup multiplier and its precomputation, so the
// w < p precondition cannot be proved.
func (pr *nttPrime) inverseRange(a []uint64, i0, i1, half int, irot, irotShoup uint64) {
	p, twoP := pr.p, pr.twoP
	for i := i0; i < i1; i++ {
		l, r := a[i], a[i+half]
		u0 := l + r
		if u0 >= twoP {
			u0 -= twoP
		}
		a[i] = u0
		a[i+half] = shoupMul(l+twoP-r, irotShoup, irot, p) // want "Shoup multiplier w not provably below p"
	}
}

// fillTwiddles grows the table with a bare multiply instead of mulMod:
// the product can wrap, and the unreduced twiddle breaks the table's < p
// contract and the Shoup precomputation.
func (pr *nttPrime) fillTwiddles(w, ws, iw, iws []uint64) {
	p := pr.p
	for s := range w {
		k := Len(uint(s)) - 1
		rot := w[s-1<<k] * pr.root[k+2] // want "possible uint64 wraparound"
		w[s] = rot                      // want "store into twiddle table w not provably below p"
		ws[s] = shoupOf(rot, p)         // want "Shoup precomputation input w not provably below p"
		iw[s] = mulMod(iw[s-1<<k], pr.iroot[k+2], p)
		iws[s] = shoupOf(iw[s], p)
	}
}

// forward hands each block the table's Shoup constant where the twiddle
// belongs: only w's entries are below p.
func (pr *nttPrime) forward(a, w, ws []uint64) {
	h := Len(uint(len(a))) - 1
	for st := 0; st < h; st++ {
		half := 1 << (h - st - 1)
		for s := 0; s < 1<<st; s++ {
			offset := s << (h - st)
			pr.forwardRange(a, offset, offset+half, half, ws[s], w[s]) // want "twiddle argument not provably below p"
		}
	}
}

type nttChunk struct {
	pr            *nttPrime
	a             []uint64
	lo, hi, half  int
	rot, rotShoup uint64
}

// splitBlock files the Shoup precomputation as the chunk's twiddle, which
// breaks the record's < p contract.
func (pr *nttPrime) splitBlock(a []uint64, offset, half int, rot, rotShoup uint64) {
	c := &nttChunk{pr: pr, a: a, lo: offset, hi: offset + half, half: half}
	c.rot = rotShoup // want "store into nttChunk.rot not provably below p"
	c.rotShoup = rot
	pr.runChunk(c)
}

// runChunk hands the range the chunk's Shoup precomputation where the
// twiddle belongs: only c.rot carries the split block's < p contract.
func (pr *nttPrime) runChunk(c *nttChunk) {
	pr.forwardRange(c.a, c.lo, c.hi, c.half, c.rotShoup, c.rot) // want "twiddle argument not provably below p"
}

// nttLoad drops the first of the two conditional subtracts, so a raw limb
// is only provably below 2^64 − 2p, not 2p.
func nttLoad(dst, x []uint64, pr *nttPrime) {
	twoP := pr.twoP
	for i, v := range x {
		if v >= twoP {
			v -= twoP
		}
		dst[i] = v // want "store into lazy buffer dst not provably below 2p"
	}
	clear(dst[len(x):])
}

// nttProductInto feeds a raw operand to redc and drops the strict final
// reduction, leaving dst in [0, 2p) instead of [0, p) for the CRT step.
func nttProductInto(dst, work, x, y, w, ws []uint64, pr *nttPrime) {
	p, pInv := pr.p, pr.pInv
	nttLoad(dst, x, pr)
	pr.forward(dst, w, ws)
	for i, v := range work {
		dst[i] = redc(x[i], v, p, pInv) // want "redc operand a not provably below 2p"
	}
	scale := mulMod(invMod(uint64(len(dst))%p, p), pr.r, p)
	scaleShoup := shoupOf(scale, p)
	for i, v := range dst {
		dst[i] = shoupMul(v, scale, scaleShoup, p) // want "final store into dst before CRT recombination not provably below p"
	}
}

// nttCRTCombine drops the reduction loop after u += r1m3, so the d3
// subtraction can underflow.
func nttCRTCombine(z, res1, res2, res3 []uint64) {
	p2 := nttPrimes[1].p
	p3 := nttPrimes[2].p
	c := &nttCRT
	m := len(z)
	for i := 0; i < m-1 && i < len(res1); i++ {
		r1, r2, r3 := res1[i], res2[i], res3[i]
		r1m2 := r1
		if r1m2 >= p2 {
			r1m2 -= p2
		}
		d2 := r2 + p2 - r1m2
		if d2 >= p2 {
			d2 -= p2
		}
		t2 := shoupMul(d2, c.inv12, c.inv12Shoup, p2)
		if t2 >= p2 {
			t2 -= p2
		}
		r1m3 := r1
		if r1m3 >= p3 {
			r1m3 -= p3
		}
		u := shoupMul(t2, c.p1mod3, c.p1mod3Shoup, p3)
		u += r1m3
		d3 := r3 + p3 - u // want "possible uint64 wraparound"
		if d3 >= p3 {
			d3 -= p3
		}
		t3 := shoupMul(d3, c.inv123, c.inv123Shoup, p3)
		if t3 >= p3 {
			t3 -= p3
		}
		var cc uint64
		z[i], cc = Add64(z[i], t2, 0)
		z[i+1], cc = Add64(z[i+1], t3, cc)
		_ = cc
	}
}

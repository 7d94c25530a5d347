// Clean fixture: a trimmed, import-free mirror of the real NTT kernels.
// Every store, Shoup/REDC call, and CRT constant here must be machine-
// provable — this package expects zero findings. Mul64/Add64/
// Len are local stand-ins matched by name, like the real
// math/bits calls.
package bigint

type nttPrime struct {
	p, twoP, g, s, pInv, r uint64
	root, iroot            []uint64
	tw                     *nttTwiddles
}

type nttTwiddles struct {
	w, ws, iw, iws []uint64
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
	nttCRT.p1mod3 = p1 % p3
	nttCRT.p1mod3Shoup = shoupOf(nttCRT.p1mod3, p3)
	nttCRT.inv123 = invMod(mulMod(p1%p3, p2%p3, p3), p3)
	nttCRT.inv123Shoup = shoupOf(nttCRT.inv123, p3)
	nttCRT.p12hi, nttCRT.p12lo = Mul64(p1, p2)
}

// Stand-ins for math/bits, matched by name.
func Mul64(a, b uint64) (hi, lo uint64)         { return 0, 0 }
func Add64(a, b, carry uint64) (uint64, uint64) { return 0, 0 }
func Len(x uint) int                            { return 0 }

// Axiomatized helpers: modbound trusts their doc contracts by name, so the
// fixture bodies are stubs.
func mulMod(a, b, p uint64) uint64           { return 0 }
func powMod(b, e, p uint64) uint64           { return 0 }
func invMod(a, p uint64) uint64              { return 0 }
func shoupOf(w, p uint64) uint64             { return 0 }
func shoupMul(x, w, wShoup, p uint64) uint64 { return 0 }
func redc(a, b, p, pInv uint64) uint64       { return 0 }

func fork(fn func()) { fn() }

func sameNat(x, y []uint64) bool { return len(x) == len(y) && len(x) > 0 }

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

func (pr *nttPrime) inverseRange(a []uint64, i0, i1, half int, irot, irotShoup uint64) {
	p, twoP := pr.p, pr.twoP
	for i := i0; i < i1; i++ {
		l, r := a[i], a[i+half]
		u0 := l + r
		if u0 >= twoP {
			u0 -= twoP
		}
		a[i] = u0
		a[i+half] = shoupMul(l+twoP-r, irot, irotShoup, p)
	}
}

type nttChunk struct {
	pr            *nttPrime
	a             []uint64
	lo, hi, half  int
	rot, rotShoup uint64
	inverse       bool
}

func (pr *nttPrime) splitBlock(a []uint64, offset, half int, rot, rotShoup uint64, inverse bool) {
	chunk := half >> 2
	for lo := 0; lo < half; lo += chunk {
		c := new(nttChunk)
		c.pr, c.a, c.half, c.rot, c.rotShoup, c.inverse = pr, a, half, rot, rotShoup, inverse
		c.lo, c.hi = offset+lo, offset+lo+chunk
		fork(c.work)
	}
}

func (c *nttChunk) work() { c.pr.runChunk(c) }

func (pr *nttPrime) runChunk(c *nttChunk) {
	if c.inverse {
		pr.inverseRange(c.a, c.lo, c.hi, c.half, c.rot, c.rotShoup)
	} else {
		pr.forwardRange(c.a, c.lo, c.hi, c.half, c.rot, c.rotShoup)
	}
}

func (pr *nttPrime) twiddles(n int) *nttTwiddles {
	if pr.tw != nil && 2*len(pr.tw.w) >= n {
		return pr.tw
	}
	m := n / 2
	t := &nttTwiddles{w: make([]uint64, m), ws: make([]uint64, m), iw: make([]uint64, m), iws: make([]uint64, m)}
	pr.fillTwiddles(t.w, t.ws, t.iw, t.iws)
	pr.tw = t
	return t
}

func (pr *nttPrime) fillTwiddles(w, ws, iw, iws []uint64) {
	p := pr.p
	for s := range w {
		if s == 0 {
			w[0], iw[0] = 1, 1
		} else {
			k := Len(uint(s)) - 1
			w[s] = mulMod(w[s-1<<k], pr.root[k+2], p)
			iw[s] = mulMod(iw[s-1<<k], pr.iroot[k+2], p)
		}
		ws[s] = shoupOf(w[s], p)
		iws[s] = shoupOf(iw[s], p)
	}
}

func (pr *nttPrime) forward(a, w, ws []uint64) {
	h := Len(uint(len(a))) - 1
	for st := 0; st < h; st++ {
		half := 1 << (h - st - 1)
		for s := 0; s < 1<<st; s++ {
			offset := s << (h - st)
			if half >= 1024 {
				pr.splitBlock(a, offset, half, w[s], ws[s], false)
			} else {
				pr.forwardRange(a, offset, offset+half, half, w[s], ws[s])
			}
		}
	}
}

func (pr *nttPrime) inverse(a, iw, iws []uint64) {
	h := Len(uint(len(a))) - 1
	for st := h; st >= 1; st-- {
		half := 1 << (h - st)
		for s := 0; s < 1<<(st-1); s++ {
			offset := s << (h - st + 1)
			if half >= 1024 {
				pr.splitBlock(a, offset, half, iw[s], iws[s], true)
			} else {
				pr.inverseRange(a, offset, offset+half, half, iw[s], iws[s])
			}
		}
	}
}

func nttLoad(dst, x []uint64, pr *nttPrime) {
	twoP, fourP := pr.twoP, 4*pr.p
	for i, v := range x {
		if v >= fourP {
			v -= fourP
		}
		if v >= twoP {
			v -= twoP
		}
		dst[i] = v
	}
	clear(dst[len(x):])
}

func nttProductInto(dst, work, x, y []uint64, pr *nttPrime) {
	p, pInv := pr.p, pr.pInv
	tw := pr.twiddles(len(dst))
	nttLoad(dst, x, pr)
	pr.forward(dst, tw.w, tw.ws)
	if !sameNat(x, y) {
		nttLoad(work, y, pr)
		pr.forward(work, tw.w, tw.ws)
		for i, v := range work {
			dst[i] = redc(dst[i], v, p, pInv)
		}
	} else {
		for i, v := range dst {
			dst[i] = redc(v, v, p, pInv)
		}
	}
	pr.inverse(dst, tw.iw, tw.iws)
	scale := mulMod(invMod(uint64(len(dst))%p, p), pr.r, p)
	scaleShoup := shoupOf(scale, p)
	for i, v := range dst {
		u := shoupMul(v, scale, scaleShoup, p)
		if u >= p {
			u -= p
		}
		dst[i] = u
	}
}

func nttCRTCombine(z, res1, res2, res3 []uint64) {
	p1 := nttPrimes[0].p
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
		for u >= p3 {
			u -= p3
		}
		d3 := r3 + p3 - u
		if d3 >= p3 {
			d3 -= p3
		}
		t3 := shoupMul(d3, c.inv123, c.inv123Shoup, p3)
		if t3 >= p3 {
			t3 -= p3
		}

		hi1, lo1 := Mul64(p1, t2)
		w0, carry := Add64(r1, lo1, 0)
		w1 := hi1 + carry

		hiL, loL := Mul64(c.p12lo, t3)
		hiH, loH := Mul64(c.p12hi, t3)
		w0, carry = Add64(w0, loL, 0)
		w1, carry = Add64(w1, hiL, carry)
		w2 := hiH + carry
		w1, carry = Add64(w1, loH, 0)
		w2 += carry

		var cc uint64
		z[i], cc = Add64(z[i], w0, 0)
		z[i+1], cc = Add64(z[i+1], w1, cc)
		if i+2 < m {
			z[i+2], cc = Add64(z[i+2], w2, cc)
			for j := i + 3; cc != 0 && j < m; j++ {
				z[j], cc = Add64(z[j], cc, 0)
			}
		}
	}
}

// Package points implements Toom-Cook evaluation-point sets.
//
// A Toom-Cook-k algorithm is determined by its split number k and a set of
// 2k-1 evaluation points (Section 2.2 of the paper). The fault-tolerant
// variant of Section 4.2 adds f redundant points, and the multi-step variant
// of Sections 4.3/6 needs points in (2k-1, l)-general position. This package
// provides:
//
//   - homogeneous projective points (x : h), including ∞ = (1 : 0), with the
//     standard sets used in practice (e.g. {0, 1, -1, 2, ∞} for Toom-3);
//   - evaluation-matrix construction for polynomials of a given width;
//   - validity checks: a point set is valid for fault tolerance f iff every
//     (2k-1)-subset has an invertible product-evaluation matrix;
//   - multivariate (l-variable) points, (r, l)-general-position checking
//     (Claim 6.1) and the redundant-point search heuristic (Claims 6.2–6.5).
package points

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/mat"
	"repro/internal/rat"
)

// Point is a homogeneous (projective) evaluation point (X : H). The paper
// follows Zanoni's homogeneous notation: the classical point ∞ is (1 : 0),
// and a finite point v is (v : 1). Two points are equivalent iff they are
// proportional; valid sets contain pairwise non-proportional points.
type Point struct {
	X, H rat.Rat
}

// Finite returns the finite point (v : 1).
func Finite(v rat.Rat) Point { return Point{X: v, H: rat.One()} }

// FiniteInt64 returns the finite point (v : 1) for a small integer v.
func FiniteInt64(v int64) Point { return Finite(rat.FromInt64(v)) }

// Infinity returns the point at infinity (1 : 0).
func Infinity() Point { return Point{X: rat.One(), H: rat.Zero()} }

// IsInfinity reports whether p is the point at infinity (H == 0).
func (p Point) IsInfinity() bool { return p.H.IsZero() }

// String formats the point, using ∞ for (x : 0).
func (p Point) String() string {
	if p.IsInfinity() {
		return "inf"
	}
	if p.H.Equal(rat.One()) {
		return p.X.String()
	}
	return fmt.Sprintf("(%v:%v)", p.X, p.H)
}

// Proportional reports whether p and q name the same projective point.
func (p Point) Proportional(q Point) bool {
	// p ~ q  iff  x_p·h_q == x_q·h_p (and neither is (0:0), which we forbid).
	return p.X.Mul(q.H).Equal(q.X.Mul(p.H))
}

// Row returns the evaluation row of p for polynomials of the given width
// (number of coefficients): [h^{w-1}, h^{w-2}x, …, x^{w-1}]. Evaluating a
// degree-(w-1) homogeneous polynomial at p is the dot product of this row
// with the coefficient vector.
func (p Point) Row(width int) []rat.Rat {
	row := make([]rat.Rat, width)
	for j := 0; j < width; j++ {
		row[j] = p.H.Pow(width - 1 - j).Mul(p.X.Pow(j))
	}
	return row
}

// Standard returns the canonical point set with n points:
// 0, 1, -1, 2, -2, 3, -3, …, with ∞ last. For n = 5 (Toom-3) this is the
// commonly used {0, 1, -1, 2, ∞} (cf. Section 1.1 of the paper).
func Standard(n int) []Point {
	if n < 1 {
		panic("points: need at least one point")
	}
	pts := make([]Point, 0, n)
	pts = append(pts, FiniteInt64(0))
	v := int64(1)
	for len(pts) < n-1 {
		pts = append(pts, FiniteInt64(v))
		if len(pts) < n-1 {
			pts = append(pts, FiniteInt64(-v))
		}
		v++
	}
	if len(pts) < n {
		pts = append(pts, Infinity())
	}
	return pts
}

// StandardWithRedundancy returns the 2k-1 standard points for Toom-Cook-k
// followed by f redundant points, all pairwise non-proportional. The
// redundant points continue the standard pattern with fresh finite values,
// so that every (2k-1)-subset of the result is a valid point set (verified
// by Valid in tests; for distinct univariate points this is the classical
// interpolation theorem, Theorem 2.1).
func StandardWithRedundancy(k, f int) []Point {
	if k < 2 {
		panic("points: Toom-Cook needs k >= 2")
	}
	if f < 0 {
		panic("points: negative redundancy")
	}
	base := Standard(2*k - 1)
	pts := make([]Point, 0, 2*k-1+f)
	pts = append(pts, base...)
	// Find the largest finite magnitude used, then continue alternating.
	maxAbs := int64(0)
	for _, p := range base {
		if p.IsInfinity() {
			continue
		}
		if v, ok := p.X.Num().Int64(); ok {
			if v < 0 {
				v = -v
			}
			if v > maxAbs {
				maxAbs = v
			}
		}
	}
	// The standard set ends either on +v or ∞; resume from the next unused
	// finite value, keeping the alternation dense.
	next := maxAbs
	usedNeg := false
	for _, p := range base {
		if !p.IsInfinity() && p.X.Sign() < 0 {
			if v, _ := p.X.Neg().Num().Int64(); v == maxAbs {
				usedNeg = true
			}
		}
	}
	for len(pts) < 2*k-1+f {
		if !usedNeg && next > 0 {
			pts = append(pts, FiniteInt64(-next))
			usedNeg = true
			continue
		}
		next++
		pts = append(pts, FiniteInt64(next))
		usedNeg = false
	}
	return pts
}

// EvalMatrix returns the len(pts)×width evaluation matrix whose i-th row is
// pts[i].Row(width). For width = k this is the paper's U (= V); for
// width = 2k-1 it is the product-polynomial evaluation matrix whose inverse
// transpose defines W.
func EvalMatrix(pts []Point, width int) *mat.Matrix {
	m := mat.New(len(pts), width)
	for i, p := range pts {
		row := p.Row(width)
		for j, v := range row {
			m.Set(i, j, v)
		}
	}
	return m
}

// memo caches Valid and Interpolation per exact point set and width: every
// fault-tolerant multiplication re-checks the same redundant set and
// re-inverts the same surviving subsets, and both are pure functions of
// their arguments. It holds at most memoMax entries per map, so a search
// over many candidate sets stops caching rather than growing without
// bound.
var memo = struct {
	sync.Mutex
	valid  map[string]error
	interp map[string]interpEntry
}{valid: map[string]error{}, interp: map[string]interpEntry{}}

type interpEntry struct {
	m   *mat.Matrix // never handed out: callers get a clone
	err error
}

const memoMax = 1 << 10

// appendKey appends the memo key of a point set and width to b: every
// coordinate as a reduced fraction, not the projective point, because
// proportional representatives have different evaluation rows.
func appendKey(b []byte, pts []Point, width int) []byte {
	b = strconv.AppendInt(b, int64(width), 10)
	for _, p := range pts {
		b = appendRat(append(b, ' '), p.X)
		b = appendRat(append(b, ':'), p.H)
	}
	return b
}

// appendRat writes r as "p/q", without allocating when both fit an int64.
func appendRat(b []byte, r rat.Rat) []byte {
	n, nok := r.Num().Int64()
	d, dok := r.Den().Int64()
	if !nok || !dok {
		return append(b, r.String()...)
	}
	return strconv.AppendInt(append(strconv.AppendInt(b, n, 10), '/'), d, 10)
}

// Valid reports whether pts is a valid evaluation-point set for polynomials
// of the given product width: the evaluation matrix restricted to any
// `width` rows must be injective. For len(pts) == width this is simple
// invertibility; for len(pts) == width+f it is the fault-tolerance validity
// condition of Section 4.2 (any f erasures leave an invertible system).
// The answer is computed once per point set and width.
func Valid(pts []Point, width int) error {
	var buf [64]byte
	key := appendKey(buf[:0], pts, width)
	memo.Lock()
	defer memo.Unlock()
	if err, ok := memo.valid[string(key)]; ok {
		return err
	}
	err := valid(pts, width)
	if len(memo.valid) < memoMax {
		memo.valid[string(key)] = err
	}
	return err
}

func valid(pts []Point, width int) error {
	if len(pts) < width {
		return fmt.Errorf("points: %d points cannot determine %d coefficients", len(pts), width)
	}
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if pts[i].Proportional(pts[j]) {
				return fmt.Errorf("points: points %d and %d are proportional (%v ~ %v)", i, j, pts[i], pts[j])
			}
		}
	}
	full := EvalMatrix(pts, width)
	for _, subset := range subsets(len(pts), width) {
		if !full.SelectRows(subset).IsInjective() {
			return fmt.Errorf("points: subset %v has singular evaluation matrix", subset)
		}
	}
	return nil
}

// Interpolation returns W^T for the given points and product width: the
// inverse of the (square) product-evaluation matrix. It errors if the
// matrix is singular. This is also the "on the fly" interpolation matrix
// the fault-tolerant algorithm builds from whichever 2k-1 sub-problems
// survive (Section 4.2, Fault recovery). The inverse is computed once per
// point set and width; each call returns its own copy.
func Interpolation(pts []Point, width int) (*mat.Matrix, error) {
	var buf [64]byte
	key := appendKey(buf[:0], pts, width)
	memo.Lock()
	defer memo.Unlock()
	e, ok := memo.interp[string(key)]
	if !ok {
		e.m, e.err = interpolation(pts, width)
		if len(memo.interp) < memoMax {
			memo.interp[string(key)] = e
		}
	}
	if e.err != nil {
		return nil, e.err
	}
	return e.m.Clone(), nil
}

func interpolation(pts []Point, width int) (*mat.Matrix, error) {
	if len(pts) != width {
		return nil, fmt.Errorf("points: interpolation needs exactly %d points, got %d", width, len(pts))
	}
	e := EvalMatrix(pts, width)
	inv, err := e.Inverse()
	if err != nil {
		return nil, fmt.Errorf("points: singular evaluation matrix: %w", err)
	}
	return inv, nil
}

// subsets enumerates all size-s subsets of {0,…,n-1}. Exponential; used on
// the small sets (2k-1+f points) that arise in practice.
func subsets(n, s int) [][]int {
	var out [][]int
	idx := make([]int, s)
	var rec func(start, pos int)
	rec = func(start, pos int) {
		if pos == s {
			c := make([]int, s)
			copy(c, idx)
			out = append(out, c)
			return
		}
		for i := start; i <= n-(s-pos); i++ {
			idx[pos] = i
			rec(i+1, pos+1)
		}
	}
	rec(0, 0)
	return out
}

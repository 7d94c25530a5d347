package toom

import (
	"sync"

	"repro/internal/bigint"
)

// workspace is the reusable state of one depth-first Toom-Cook recursion.
// frames[d] holds the accumulators of the recursion node currently open at
// depth d; the 2k-1 children of a node run one after another and reuse the
// single frame below it, so the whole recursion touches depth-many frames
// and, once their buffers have grown, allocates nothing. A workspace is
// rented from a pool for one top-level call and is not safe for concurrent
// use.
type workspace struct {
	in     [2]bigint.Acc // top-level operands
	out    bigint.Acc    // top-level product
	frames []*frame
}

// frame is one recursion depth's accumulators. A node's product is written
// into its parent's prods entry (or into workspace.out at the top), so a
// frame needs no output of its own.
type frame struct {
	k         int           // split number the slices are sized for
	da, db    []bigint.Acc  // k digits per operand
	ea, eb    []bigint.Acc  // 2k-1 evaluations per operand
	prods     []bigint.Acc  // 2k-1 pointwise products
	coeffs    []bigint.Acc  // 2k-1 product-polynomial coefficients
	opA, opB  []*bigint.Acc // evaluation i of each operand: &ea[i], or a digit read in place
	coef      []*bigint.Acc // coefficient i: &coeffs[i], or a product read in place
	even, odd bigint.Acc    // digit sums E and O of a ±v evaluation pair
}

var workspaces = sync.Pool{New: func() any { return new(workspace) }}

func getWorkspace() *workspace { return workspaces.Get().(*workspace) }

func putWorkspace(ws *workspace) { workspaces.Put(ws) }

// frame returns the frame for recursion depth d, sized for split number k.
// Frames keep the largest size they have seen; a smaller k uses a prefix.
func (ws *workspace) frame(d, k int) *frame {
	for len(ws.frames) <= d {
		ws.frames = append(ws.frames, new(frame))
	}
	f := ws.frames[d]
	if f.k == k {
		return f
	}
	f.k = k
	n := 2*k - 1
	f.da, f.db = fit(f.da, k), fit(f.db, k)
	f.ea, f.eb = fit(f.ea, n), fit(f.eb, n)
	f.prods, f.coeffs = fit(f.prods, n), fit(f.coeffs, n)
	f.opA, f.opB, f.coef = fit(f.opA, n), fit(f.opB, n), fit(f.coef, n)
	return f
}

// fit returns s with length n, reusing its backing array (and the
// accumulators' buffers in it) when the capacity allows.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// load copies Ints into accumulators.
func load(dst []bigint.Acc, xs []bigint.Int) {
	for i, x := range xs {
		dst[i].SetInt(x)
	}
}

// values copies accumulators out as Ints, leaving the buffers in place.
func values(xs []*bigint.Acc) []bigint.Int {
	out := make([]bigint.Int, len(xs))
	for i, x := range xs {
		out[i] = x.Value()
	}
	return out
}

// accValues is values over a slice of accumulators.
func accValues(xs []bigint.Acc) []bigint.Int {
	out := make([]bigint.Int, len(xs))
	for i := range xs {
		out[i] = xs[i].Value()
	}
	return out
}

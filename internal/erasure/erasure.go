// Package erasure implements the systematic (n, k, d) linear erasure codes
// of Section 2.5 of the paper, with Vandermonde redundancy rows.
//
// The fault-tolerant Toom-Cook algorithm (Section 4.1) encodes the data held
// by the P/(2k-1) processors of each grid column onto f code processors in
// the same column, using a (P/(2k-1)+f, P/(2k-1), f+1) code: code processor
// i holds the weighted sum Σ_l η_i^l · data_l. Because the weights form a
// Vandermonde matrix (every minor invertible), any f erasures can be decoded
// by solving a small exact linear system over ℚ, whose solution is integral.
//
// Code words here are vectors of big integers: each "letter" is one
// processor's local share of an operand, and the linear combination is taken
// element-wise.
package erasure

import (
	"fmt"

	"repro/internal/bigint"
	"repro/internal/mat"
	"repro/internal/rat"
)

// Code is a systematic (K+F, K, F+1) erasure code over integer vectors.
// The generator is (I_K ; E) with E the F×K Vandermonde matrix on the nodes
// η_0 … η_{F-1} (Definition 2.7). The zero value is not usable; construct
// with New.
type Code struct {
	K, F  int
	nodes []int64   // η_i, pairwise distinct
	e     [][]int64 // F×K redundancy matrix, e[i][l] = η_i^l
}

// New returns the systematic code with k data letters and f redundancy
// letters, using nodes η_i = i+1 (distinct positive integers keep every
// Vandermonde minor invertible).
func New(k, f int) (*Code, error) {
	if k < 1 {
		return nil, fmt.Errorf("erasure: need k >= 1 data letters, got %d", k)
	}
	if f < 0 {
		return nil, fmt.Errorf("erasure: negative redundancy %d", f)
	}
	nodes := make([]int64, f)
	for i := range nodes {
		nodes[i] = int64(i + 1)
	}
	return NewWithNodes(k, nodes)
}

// NewWithNodes builds the code from explicit distinct Vandermonde nodes.
func NewWithNodes(k int, nodes []int64) (*Code, error) {
	if k < 1 {
		return nil, fmt.Errorf("erasure: need k >= 1 data letters, got %d", k)
	}
	seen := map[int64]bool{}
	for _, n := range nodes {
		if seen[n] {
			return nil, fmt.Errorf("erasure: repeated node %d", n)
		}
		seen[n] = true
	}
	f := len(nodes)
	e := make([][]int64, f)
	for i, eta := range nodes {
		row := make([]int64, k)
		v := int64(1)
		for l := 0; l < k; l++ {
			row[l] = v
			if l+1 < k {
				next := v * eta
				if eta != 0 && next/eta != v {
					return nil, fmt.Errorf("erasure: node %d overflows int64 at power %d", eta, l+1)
				}
				v = next
			}
		}
		e[i] = row
	}
	return &Code{K: k, F: f, nodes: append([]int64(nil), nodes...), e: e}, nil
}

// N returns the code length K+F.
func (c *Code) N() int { return c.K + c.F }

// Distance returns the code distance F+1 (any F erasures are recoverable).
func (c *Code) Distance() int { return c.F + 1 }

// Nodes returns a copy of the Vandermonde nodes.
func (c *Code) Nodes() []int64 { return append([]int64(nil), c.nodes...) }

// RedundancyRow returns code row i as weights over the K data letters:
// redundancy letter i = Σ_l row[l]·data[l] (shared storage; callers must
// not modify). The fault-tolerant algorithm uses these weights directly
// when a code processor accumulates its column's reduce (Section 4.1, "Code
// creation").
func (c *Code) RedundancyRow(i int) []int64 { return c.e[i] }

// Encode returns the F redundancy letters for a data word of K letters,
// each letter being a vector of big integers combined element-wise.
func (c *Code) Encode(data [][]bigint.Int) ([][]bigint.Int, error) {
	if len(data) != c.K {
		return nil, fmt.Errorf("erasure: Encode wants %d letters, got %d", c.K, len(data))
	}
	width := len(data[0])
	for _, d := range data {
		if len(d) != width {
			return nil, fmt.Errorf("erasure: ragged data letters")
		}
	}
	out := make([][]bigint.Int, c.F)
	for i := 0; i < c.F; i++ {
		letter := make([]bigint.Int, width)
		for l := 0; l < c.K; l++ {
			w := c.e[i][l]
			if w == 0 {
				continue
			}
			for j := 0; j < width; j++ {
				if data[l][j].IsZero() {
					continue
				}
				letter[j] = letter[j].Add(data[l][j].MulInt64(w))
			}
		}
		out[i] = letter
	}
	return out, nil
}

// Decode reconstructs the erased data letters. surviving maps data index →
// letter for the intact data letters; redundancy maps redundancy index →
// letter for intact redundancy letters. At most F letters may be missing in
// total. The returned map contains the reconstructed data letters for every
// erased data index.
//
// Decoding solves the linear system restricted to the erased coordinates:
// for each available redundancy letter r_i,
//
//	r_i − Σ_{l intact} η_i^l·d_l = Σ_{l erased} η_i^l·d_l,
//
// an s×s Vandermonde-minor system (s = number of erased data letters) that
// is invertible by the MDS property and solved exactly over ℚ; the solution
// is integral because the true data is.
func (c *Code) Decode(surviving map[int][]bigint.Int, redundancy map[int][]bigint.Int) (map[int][]bigint.Int, error) {
	var erased []int
	for l := 0; l < c.K; l++ {
		if _, ok := surviving[l]; !ok {
			erased = append(erased, l)
		}
	}
	if len(erased) == 0 {
		return map[int][]bigint.Int{}, nil
	}
	if len(erased) > len(redundancy) {
		return nil, fmt.Errorf("erasure: %d erasures but only %d redundancy letters available", len(erased), len(redundancy))
	}
	// Pick the first len(erased) available redundancy letters.
	var rows []int
	for i := 0; i < c.F && len(rows) < len(erased); i++ {
		if _, ok := redundancy[i]; ok {
			rows = append(rows, i)
		}
	}
	if len(rows) < len(erased) {
		return nil, fmt.Errorf("erasure: insufficient redundancy letters")
	}
	// Determine letter width.
	width := -1
	for _, v := range surviving {
		width = len(v)
		break
	}
	if width < 0 {
		width = len(redundancy[rows[0]])
	}

	// Build the s×s system matrix A with A[r][j] = η_{rows[r]}^{erased[j]}.
	s := len(erased)
	a := mat.New(s, s)
	for r, ri := range rows {
		for j, l := range erased {
			a.Set(r, j, rat.FromInt64(c.e[ri][l]))
		}
	}
	ainv, err := a.Inverse()
	if err != nil {
		return nil, fmt.Errorf("erasure: decode system singular (nodes not distinct?): %w", err)
	}

	// Right-hand side: b_r = redundancy[rows[r]] − Σ_{intact l} η^l·d_l,
	// element-wise over the letter width.
	b := make([][]bigint.Int, s)
	for r, ri := range rows {
		letter := redundancy[ri]
		if len(letter) != width {
			return nil, fmt.Errorf("erasure: ragged redundancy letter %d", ri)
		}
		row := make([]bigint.Int, width)
		copy(row, letter)
		for l := 0; l < c.K; l++ {
			d, ok := surviving[l]
			if !ok {
				continue
			}
			if len(d) != width {
				return nil, fmt.Errorf("erasure: ragged surviving letter %d", l)
			}
			w := c.e[ri][l]
			if w == 0 {
				continue
			}
			for j := 0; j < width; j++ {
				if d[j].IsZero() {
					continue
				}
				row[j] = row[j].Sub(d[j].MulInt64(w))
			}
		}
		b[r] = row
	}

	// x = A⁻¹·b, element-wise across the letter width; results must be
	// integers.
	out := make(map[int][]bigint.Int, s)
	for j, l := range erased {
		letter := make([]bigint.Int, width)
		for col := 0; col < width; col++ {
			acc := rat.Zero()
			for r := 0; r < s; r++ {
				entry := ainv.At(j, r)
				if entry.IsZero() || b[r][col].IsZero() {
					continue
				}
				acc = acc.Add(entry.MulInt(b[r][col]))
			}
			if !acc.IsInt() {
				return nil, fmt.Errorf("erasure: non-integral decode (corrupted letters?)")
			}
			letter[col] = acc.Int()
		}
		out[l] = letter
	}
	return out, nil
}

// GeneratorMatrix returns the full (K+F)×K generator (I_K ; E) as a rational
// matrix, for verification against Definition 2.7.
func (c *Code) GeneratorMatrix() *mat.Matrix {
	g := mat.New(c.K+c.F, c.K)
	for i := 0; i < c.K; i++ {
		g.Set(i, i, rat.One())
	}
	for i := 0; i < c.F; i++ {
		for l := 0; l < c.K; l++ {
			g.Set(c.K+i, l, rat.FromInt64(c.e[i][l]))
		}
	}
	return g
}

package mat

// intmat.go implements dense matrices over arbitrary-precision integers
// (internal/bigint) — the payload type of the fault-tolerant matrix
// multiplication tier. An IntMat flattens to a row-major []bigint.Int, which
// is exactly the machine.Ints shape the collective layer moves, so matrix
// tiles travel the same tagged-limb channels as integer digits with no
// second collective implementation.

import (
	"fmt"

	"repro/internal/bigint"
)

// IntMat is a dense rows×cols matrix over integers. The zero IntMat is the
// empty 0×0 matrix. Matrices are mutable.
//
// The type is deliberately not named Int: the analysis layers key limb
// arithmetic and value contracts on the receiver type name "Int"
// (bigint.Int), and a colliding matrix type would be swept into those rules.
type IntMat struct {
	rows, cols int
	a          []bigint.Int // row-major
}

// NewIntMat returns a zero-filled rows×cols integer matrix.
func NewIntMat(rows, cols int) *IntMat {
	if rows < 0 || cols < 0 {
		panic("mat: negative dimension")
	}
	a := make([]bigint.Int, rows*cols)
	for i := range a {
		a[i] = bigint.Zero()
	}
	return &IntMat{rows: rows, cols: cols, a: a}
}

// IntMatFromFlat builds a rows×cols matrix over a row-major flat vector.
// The slice is adopted, not copied — the inverse of Flat.
func IntMatFromFlat(rows, cols int, flat []bigint.Int) *IntMat {
	if len(flat) != rows*cols {
		panic(fmt.Sprintf("mat: IntMatFromFlat got %d entries for %dx%d", len(flat), rows, cols))
	}
	return &IntMat{rows: rows, cols: cols, a: flat}
}

// IntIdentity returns the n×n integer identity matrix.
func IntIdentity(n int) *IntMat {
	m := NewIntMat(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, bigint.FromInt64(1))
	}
	return m
}

// Rows returns the number of rows.
func (m *IntMat) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *IntMat) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *IntMat) At(i, j int) bigint.Int {
	m.check(i, j)
	return m.a[i*m.cols+j]
}

// Set assigns the element at (i, j).
func (m *IntMat) Set(i, j int, v bigint.Int) {
	m.check(i, j)
	m.a[i*m.cols+j] = v
}

func (m *IntMat) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Flat returns the row-major backing vector — the wire shape the collective
// layer sends. The slice aliases the matrix; callers who mutate it mutate m.
func (m *IntMat) Flat() []bigint.Int { return m.a }

// Equal reports whether m and n have the same shape and entries.
func (m *IntMat) Equal(n *IntMat) bool {
	if m.rows != n.rows || m.cols != n.cols {
		return false
	}
	for i := range m.a {
		if m.a[i].Cmp(n.a[i]) != 0 {
			return false
		}
	}
	return true
}

// Add returns m + n.
func (m *IntMat) Add(n *IntMat) *IntMat {
	m.sameShape(n, "Add")
	z := &IntMat{rows: m.rows, cols: m.cols, a: make([]bigint.Int, len(m.a))}
	for i := range m.a {
		z.a[i] = m.a[i].Add(n.a[i])
	}
	return z
}

// SubM returns m − n. (Sub would collide with the bigint.Int limb-arithmetic
// method set the analyzers govern.)
func (m *IntMat) SubM(n *IntMat) *IntMat {
	m.sameShape(n, "SubM")
	z := &IntMat{rows: m.rows, cols: m.cols, a: make([]bigint.Int, len(m.a))}
	for i := range m.a {
		z.a[i] = m.a[i].Sub(n.a[i])
	}
	return z
}

func (m *IntMat) sameShape(n *IntMat, op string) {
	if m.rows != n.rows || m.cols != n.cols {
		panic(fmt.Sprintf("mat: %s shape mismatch %dx%d vs %dx%d", op, m.rows, m.cols, n.rows, n.cols))
	}
}

// MulNaive returns the matrix product m·n by the classical O(r·c·k) triple
// loop — the oracle the Strassen path is verified against.
func (m *IntMat) MulNaive(n *IntMat) *IntMat {
	if m.cols != n.rows {
		panic(fmt.Sprintf("mat: MulNaive shape mismatch %dx%d · %dx%d", m.rows, m.cols, n.rows, n.cols))
	}
	z := NewIntMat(m.rows, n.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			mik := m.a[i*m.cols+k]
			if mik.IsZero() {
				continue
			}
			for j := 0; j < n.cols; j++ {
				z.a[i*n.cols+j] = z.a[i*n.cols+j].Add(mik.Mul(n.a[k*n.cols+j]))
			}
		}
	}
	return z
}

// Block returns a copy of the r×c submatrix whose top-left corner is (i0, j0).
func (m *IntMat) Block(i0, j0, r, c int) *IntMat {
	if i0 < 0 || j0 < 0 || r < 0 || c < 0 || i0+r > m.rows || j0+c > m.cols {
		panic(fmt.Sprintf("mat: Block (%d,%d)+%dx%d out of range %dx%d", i0, j0, r, c, m.rows, m.cols))
	}
	z := &IntMat{rows: r, cols: c, a: make([]bigint.Int, r*c)}
	for i := 0; i < r; i++ {
		copy(z.a[i*c:(i+1)*c], m.a[(i0+i)*m.cols+j0:(i0+i)*m.cols+j0+c])
	}
	return z
}

// SetBlock copies blk into m with its top-left corner at (i0, j0).
func (m *IntMat) SetBlock(i0, j0 int, blk *IntMat) {
	if i0 < 0 || j0 < 0 || i0+blk.rows > m.rows || j0+blk.cols > m.cols {
		panic(fmt.Sprintf("mat: SetBlock (%d,%d)+%dx%d out of range %dx%d", i0, j0, blk.rows, blk.cols, m.rows, m.cols))
	}
	for i := 0; i < blk.rows; i++ {
		copy(m.a[(i0+i)*m.cols+j0:(i0+i)*m.cols+j0+blk.cols], blk.a[i*blk.cols:(i+1)*blk.cols])
	}
}

// Transpose returns mᵀ.
func (m *IntMat) Transpose() *IntMat {
	z := &IntMat{rows: m.cols, cols: m.rows, a: make([]bigint.Int, len(m.a))}
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			z.a[j*m.rows+i] = m.a[i*m.cols+j]
		}
	}
	return z
}

package ftmul

import (
	"math/big"
	"math/rand"
	"testing"
)

// TestMulMatrixResultEntriesIndependent: the facade converts matrices
// through shared slabs, so the product must match the naive one, and every
// returned entry must own its limbs — growing one entry in place leaves
// its neighbours unchanged.
func TestMulMatrixResultEntriesIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(1804))
	const n = 4
	a, b := make([][]*big.Int, n), make([][]*big.Int, n)
	for i := 0; i < n; i++ {
		a[i], b[i] = make([]*big.Int, n), make([]*big.Int, n)
		for j := 0; j < n; j++ {
			a[i][j], b[i][j] = randBig(rng, 200), randBig(rng, 200)
		}
	}
	b[1][2] = new(big.Int) // a zero entry takes no slab words
	c, _, err := MulMatrixFaultTolerant(a, b, ClusterConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]*big.Int, n)
	for i := range want {
		want[i] = make([]*big.Int, n)
		for j := range want[i] {
			want[i][j] = new(big.Int)
			for k := 0; k < n; k++ {
				want[i][j].Add(want[i][j], new(big.Int).Mul(a[i][k], b[k][j]))
			}
			if c[i][j].Cmp(want[i][j]) != 0 {
				t.Fatalf("entry (%d,%d) differs from the naive product", i, j)
			}
		}
	}
	huge := new(big.Int).Lsh(big.NewInt(1), 4096)
	for i := range c {
		for j := range c[i] {
			c[i][j].Add(c[i][j], huge)
			c[i][j].Sub(c[i][j], huge)
			c[i][j].Add(c[i][j], huge)
			for ii := range c {
				for jj := range c[ii] {
					w := want[ii][jj]
					if ii < i || (ii == i && jj <= j) {
						w = new(big.Int).Add(w, huge)
					}
					if c[ii][jj].Cmp(w) != 0 {
						t.Fatalf("growing entry (%d,%d) changed entry (%d,%d)", i, j, ii, jj)
					}
				}
			}
		}
	}
	c[0] = append(c[0], big.NewInt(7))
	if c[1][0].Cmp(new(big.Int).Add(want[1][0], huge)) != 0 {
		t.Fatal("appending to row 0 overwrote row 1")
	}
}

package erasure

import (
	"math/rand"
	"testing"

	"repro/internal/bigint"
	"repro/internal/mat"
)

func randWord(rng *rand.Rand, k, width, bits int) [][]bigint.Int {
	data := make([][]bigint.Int, k)
	for i := range data {
		data[i] = make([]bigint.Int, width)
		for j := range data[i] {
			v := bigint.Random(rng, 1+rng.Intn(bits))
			if rng.Intn(2) == 0 {
				v = v.Neg()
			}
			data[i][j] = v
		}
	}
	return data
}

func TestNewValidations(t *testing.T) {
	if _, err := New(0, 1); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := New(3, -1); err == nil {
		t.Error("negative f should fail")
	}
	if _, err := NewWithNodes(3, []int64{1, 1}); err == nil {
		t.Error("repeated nodes should fail")
	}
	if _, err := NewWithNodes(40, []int64{7}); err == nil {
		t.Error("overflowing node powers should fail")
	}
}

func TestCodeParameters(t *testing.T) {
	c, err := New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 6 || c.Distance() != 3 {
		t.Errorf("N=%d distance=%d", c.N(), c.Distance())
	}
	if got := c.Nodes(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("nodes = %v", got)
	}
	row := c.RedundancyRow(1) // η=2: 1, 2, 4, 8
	for i, want := range []int64{1, 2, 4, 8} {
		if row[i] != want {
			t.Errorf("row[%d] = %d, want %d", i, row[i], want)
		}
	}
}

func TestGeneratorIsMDS(t *testing.T) {
	// Every minor of E must be invertible (Definition 2.7).
	for _, kf := range [][2]int{{2, 1}, {3, 2}, {4, 3}} {
		c, err := New(kf[0], kf[1])
		if err != nil {
			t.Fatal(err)
		}
		g := c.GeneratorMatrix()
		e := mat.New(c.F, c.K)
		for i := 0; i < c.F; i++ {
			for l := 0; l < c.K; l++ {
				e.Set(i, l, g.At(c.K+i, l))
			}
		}
		if !mat.AllMinorsInvertible(e) {
			t.Errorf("k=%d f=%d: E has singular minor", kf[0], kf[1])
		}
	}
}

func TestEncodeDecodeAllErasurePatterns(t *testing.T) {
	// The headline property: any ≤ f erasures are recoverable, for every
	// erasure pattern.
	rng := rand.New(rand.NewSource(51))
	k, f, width := 4, 2, 3
	c, err := New(k, f)
	if err != nil {
		t.Fatal(err)
	}
	data := randWord(rng, k, width, 200)
	red, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	// All patterns of up to f erased data letters (redundancy all intact).
	for mask := 0; mask < 1<<k; mask++ {
		erasedCount := 0
		surviving := map[int][]bigint.Int{}
		for l := 0; l < k; l++ {
			if mask&(1<<l) != 0 {
				erasedCount++
			} else {
				surviving[l] = data[l]
			}
		}
		if erasedCount > f {
			continue
		}
		redMap := map[int][]bigint.Int{}
		for i := 0; i < f; i++ {
			redMap[i] = red[i]
		}
		rec, err := c.Decode(surviving, redMap)
		if err != nil {
			t.Fatalf("mask %b: %v", mask, err)
		}
		for l := 0; l < k; l++ {
			if mask&(1<<l) == 0 {
				continue
			}
			got, ok := rec[l]
			if !ok {
				t.Fatalf("mask %b: letter %d not reconstructed", mask, l)
			}
			for j := range got {
				if !got[j].Equal(data[l][j]) {
					t.Fatalf("mask %b: letter %d element %d wrong", mask, l, j)
				}
			}
		}
	}
}

func TestDecodeWithPartialRedundancy(t *testing.T) {
	// One data letter and one redundancy letter lost simultaneously: the
	// remaining redundancy letter must still recover the data letter.
	rng := rand.New(rand.NewSource(52))
	c, _ := New(3, 2)
	data := randWord(rng, 3, 2, 100)
	red, _ := c.Encode(data)
	surviving := map[int][]bigint.Int{0: data[0], 2: data[2]} // letter 1 lost
	redMap := map[int][]bigint.Int{1: red[1]}                 // redundancy 0 lost
	rec, err := c.Decode(surviving, redMap)
	if err != nil {
		t.Fatal(err)
	}
	for j := range data[1] {
		if !rec[1][j].Equal(data[1][j]) {
			t.Fatal("reconstruction with partial redundancy failed")
		}
	}
}

func TestDecodeTooManyErasures(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	c, _ := New(3, 1)
	data := randWord(rng, 3, 2, 100)
	red, _ := c.Encode(data)
	surviving := map[int][]bigint.Int{0: data[0]} // two letters lost, f=1
	if _, err := c.Decode(surviving, map[int][]bigint.Int{0: red[0]}); err == nil {
		t.Fatal("expected failure beyond code distance")
	}
}

func TestDecodeNoErasures(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	c, _ := New(2, 1)
	data := randWord(rng, 2, 2, 100)
	red, _ := c.Encode(data)
	rec, err := c.Decode(map[int][]bigint.Int{0: data[0], 1: data[1]}, map[int][]bigint.Int{0: red[0]})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) != 0 {
		t.Fatal("nothing to reconstruct")
	}
}

func TestEncodeValidations(t *testing.T) {
	c, _ := New(2, 1)
	if _, err := c.Encode([][]bigint.Int{{bigint.One()}}); err == nil {
		t.Error("wrong letter count should fail")
	}
	if _, err := c.Encode([][]bigint.Int{{bigint.One()}, {bigint.One(), bigint.One()}}); err == nil {
		t.Error("ragged letters should fail")
	}
}

// Property: linearity — the code of a sum is the sum of codes. This is the
// invariant that lets the fault-tolerant algorithm carry the code through
// the linear evaluation and interpolation stages (Section 4.1 Correctness).
func TestLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	c, _ := New(3, 2)
	for trial := 0; trial < 30; trial++ {
		a := randWord(rng, 3, 2, 150)
		b := randWord(rng, 3, 2, 150)
		sum := make([][]bigint.Int, 3)
		for i := range sum {
			sum[i] = make([]bigint.Int, 2)
			for j := range sum[i] {
				sum[i][j] = a[i][j].Add(b[i][j])
			}
		}
		ra, _ := c.Encode(a)
		rb, _ := c.Encode(b)
		rs, _ := c.Encode(sum)
		for i := range rs {
			for j := range rs[i] {
				if !rs[i][j].Equal(ra[i][j].Add(rb[i][j])) {
					t.Fatal("code is not linear")
				}
			}
		}
	}
}

// TestSolve: Solve, the repair's minor solve, returns the erased letters
// and charges one word term per nonzero inverse entry and residual, and
// refuses residual systems no codeword produces. On nodes 1, 2 the minor
// for letters 1, 2 is [[1, 1], [2, 4]], of determinant 2.
func TestSolve(t *testing.T) {
	c, _ := New(3, 2)
	rows, erased := []int{0, 1}, []int{1, 2}
	col := func(v int64) []bigint.Int { return []bigint.Int{bigint.FromInt64(v)} }
	// x1 = 1, x2 = 2: residuals 1 + 2 = 3 and 2 + 8 = 10.
	got, work, err := c.Solve(rows, erased, [][]bigint.Int{col(3), col(10)})
	if err != nil {
		t.Fatal(err)
	}
	if !got[0][0].Equal(bigint.FromInt64(1)) || !got[1][0].Equal(bigint.FromInt64(2)) {
		t.Errorf("Solve = %v, %v, want 1, 2", got[0][0], got[1][0])
	}
	if work != 4 { // a dense 2×2 inverse times two one-word residuals
		t.Errorf("work = %d, want 4", work)
	}
	if _, _, err := c.Solve(rows, erased, [][]bigint.Int{col(0), col(1)}); err == nil {
		t.Error("non-integral solution should fail")
	}
	if _, _, err := c.Solve(rows, erased, [][]bigint.Int{col(3)}); err == nil {
		t.Error("one residual for two erasures should fail")
	}
}

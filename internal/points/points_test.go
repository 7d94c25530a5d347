package points

import (
	"sync"
	"testing"

	"repro/internal/mat"
	"repro/internal/rat"
)

func TestStandardToom3Set(t *testing.T) {
	pts := Standard(5)
	want := []string{"0", "1", "-1", "2", "inf"}
	if len(pts) != 5 {
		t.Fatalf("Standard(5) has %d points", len(pts))
	}
	for i, p := range pts {
		if p.String() != want[i] {
			t.Errorf("point %d = %v, want %s", i, p, want[i])
		}
	}
}

func TestStandardSizes(t *testing.T) {
	for n := 1; n <= 12; n++ {
		pts := Standard(n)
		if len(pts) != n {
			t.Fatalf("Standard(%d) has %d points", n, len(pts))
		}
		for i := range pts {
			for j := i + 1; j < len(pts); j++ {
				if pts[i].Proportional(pts[j]) {
					t.Fatalf("Standard(%d): points %v and %v proportional", n, pts[i], pts[j])
				}
			}
		}
	}
}

func TestStandardWithRedundancy(t *testing.T) {
	for k := 2; k <= 5; k++ {
		for f := 0; f <= 3; f++ {
			pts := StandardWithRedundancy(k, f)
			if len(pts) != 2*k-1+f {
				t.Fatalf("k=%d f=%d: %d points", k, f, len(pts))
			}
			if err := Valid(pts, 2*k-1); err != nil {
				t.Errorf("k=%d f=%d: invalid set: %v", k, f, err)
			}
		}
	}
}

func TestRowHomogeneous(t *testing.T) {
	// At ∞ = (1:0), the row for width w is (0, …, 0, 1): picks the leading
	// coefficient.
	row := Infinity().Row(4)
	for j := 0; j < 3; j++ {
		if !row[j].IsZero() {
			t.Errorf("inf row[%d] = %v, want 0", j, row[j])
		}
	}
	if !row[3].Equal(rat.One()) {
		t.Errorf("inf row[3] = %v, want 1", row[3])
	}
	// At 0 = (0:1) the row is (1, 0, …, 0): picks the constant coefficient.
	row = FiniteInt64(0).Row(4)
	if !row[0].Equal(rat.One()) {
		t.Errorf("0 row[0] = %v", row[0])
	}
	for j := 1; j < 4; j++ {
		if !row[j].IsZero() {
			t.Errorf("0 row[%d] = %v, want 0", j, row[j])
		}
	}
	// At 2 = (2:1), width 3: (1, 2, 4).
	row = FiniteInt64(2).Row(3)
	for j, want := range []int64{1, 2, 4} {
		if !row[j].Equal(rat.FromInt64(want)) {
			t.Errorf("2 row[%d] = %v, want %d", j, row[j], want)
		}
	}
}

func TestInterpolationTheorem(t *testing.T) {
	// Theorem 2.1: distinct points => invertible evaluation matrix.
	for k := 2; k <= 5; k++ {
		pts := Standard(2*k - 1)
		wt, err := Interpolation(pts, 2*k-1)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		e := EvalMatrix(pts, 2*k-1)
		if !wt.Mul(e).Equal(mat.Identity(2*k - 1)) {
			t.Fatalf("k=%d: W^T · E != I", k)
		}
	}
}

func TestInterpolationInverse(t *testing.T) {
	pts := Standard(5)
	wt, err := Interpolation(pts, 5)
	if err != nil {
		t.Fatal(err)
	}
	e := EvalMatrix(pts, 5)
	prod := wt.Mul(e)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			want := rat.Zero()
			if i == j {
				want = rat.One()
			}
			if !prod.At(i, j).Equal(want) {
				t.Fatalf("W^T·E at (%d,%d) = %v", i, j, prod.At(i, j))
			}
		}
	}
}

func TestInterpolationErrors(t *testing.T) {
	if _, err := Interpolation(Standard(4), 5); err == nil {
		t.Error("expected size-mismatch error")
	}
}

func TestValidRejectsProportional(t *testing.T) {
	pts := []Point{FiniteInt64(1), Finite(rat.NewInt64(2, 2))}
	if err := Valid(pts, 2); err == nil {
		t.Error("proportional points should be invalid")
	}
	// (2:1) and (4:2) are the same projective point.
	pts = []Point{{X: rat.FromInt64(2), H: rat.One()}, {X: rat.FromInt64(4), H: rat.FromInt64(2)}}
	if err := Valid(pts, 2); err == nil {
		t.Error("scaled homogeneous points should be invalid")
	}
}

func TestValidTooFew(t *testing.T) {
	if err := Valid(Standard(3), 5); err == nil {
		t.Error("3 points cannot determine 5 coefficients")
	}
}

func TestMonomials(t *testing.T) {
	mons := Monomials(3, 2)
	if len(mons) != 9 {
		t.Fatalf("Monomials(3,2) has %d entries", len(mons))
	}
	// First and last in lexicographic order.
	if mons[0][0] != 0 || mons[0][1] != 0 {
		t.Errorf("first monomial %v", mons[0])
	}
	if mons[8][0] != 2 || mons[8][1] != 2 {
		t.Errorf("last monomial %v", mons[8])
	}
	seen := map[[2]int]bool{}
	for _, e := range mons {
		seen[[2]int{e[0], e[1]}] = true
	}
	if len(seen) != 9 {
		t.Error("duplicate monomials")
	}
}

func TestTensorPointsGeneralPosition(t *testing.T) {
	// Claim 2.2/Claim 6.5 direction: S^l for distinct base values is in
	// (|S|, l)-general position.
	base := []rat.Rat{rat.FromInt64(0), rat.FromInt64(1), rat.FromInt64(-1)}
	pts := TensorPoints(base, 2)
	if len(pts) != 9 {
		t.Fatalf("TensorPoints: %d points", len(pts))
	}
	if !InGeneralPosition(pts, 3, 2) {
		t.Fatal("tensor grid should be in (3,2)-general position")
	}
}

func TestInGeneralPositionRejectsDegenerate(t *testing.T) {
	// Nine points on a line in F^2 cannot be in (3,2)-general position:
	// a polynomial vanishing on the line (degree 1 in each var) kills them.
	var pts []MultiPoint
	for i := int64(0); i < 9; i++ {
		pts = append(pts, MultiPointInt64(i, i)) // the line y = x
	}
	if InGeneralPosition(pts, 3, 2) {
		t.Fatal("collinear points should not be in (3,2)-general position")
	}
}

func TestFindRedundantUnivariateLike(t *testing.T) {
	// l = 1: general position = distinct points; the heuristic must find
	// fresh integers.
	base := []MultiPoint{MultiPointInt64(0), MultiPointInt64(1), MultiPointInt64(-1)}
	added, err := FindRedundant(base, 3, 1, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != 2 {
		t.Fatalf("added %d points", len(added))
	}
	all := append(append([]MultiPoint{}, base...), added...)
	if !InGeneralPosition(all, 3, 1) {
		t.Fatal("extended set not in general position")
	}
}

func TestFindRedundantMultivariate(t *testing.T) {
	// The core of Section 6.2: extend the 2x2 tensor grid (k=... r=2, l=2,
	// i.e. fault-tolerant multi-step Karatsuba-like) with redundant points.
	base := TensorPoints([]rat.Rat{rat.FromInt64(0), rat.FromInt64(1)}, 2)
	added, err := FindRedundant(base, 2, 2, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([]MultiPoint{}, base...), added...)
	if !InGeneralPosition(all, 2, 2) {
		t.Fatal("extended multivariate set not in (2,2)-general position")
	}
}

func TestFindRedundantRejectsBadSeed(t *testing.T) {
	var pts []MultiPoint
	for i := int64(0); i < 4; i++ {
		pts = append(pts, MultiPointInt64(i, 0)) // x-axis: degenerate for (2,2)
	}
	if _, err := FindRedundant(pts, 2, 2, 1, 5); err == nil {
		t.Fatal("expected error for degenerate seed")
	}
}

func TestBoxShell(t *testing.T) {
	if got := len(boxShell(2, 0)); got != 1 {
		t.Errorf("shell radius 0 size %d", got)
	}
	if got := len(boxShell(2, 1)); got != 8 {
		t.Errorf("shell radius 1 size %d, want 8", got)
	}
	if got := len(boxShell(1, 3)); got != 2 {
		t.Errorf("1-d shell radius 3 size %d, want 2", got)
	}
}

func TestMultiEvalMatrixShape(t *testing.T) {
	pts := TensorPoints([]rat.Rat{rat.FromInt64(0), rat.FromInt64(1), rat.FromInt64(2)}, 2)
	m := MultiEvalMatrix(pts, 3, 2)
	if m.Rows() != 9 || m.Cols() != 9 {
		t.Fatalf("shape %dx%d", m.Rows(), m.Cols())
	}
	if m.Det().IsZero() {
		t.Fatal("tensor-grid evaluation matrix should be invertible")
	}
}

// TestMemoMatchesFreshComputation: Valid and Interpolation answer from the
// per-point-set memo exactly what a fresh computation gives, on the first
// call and the repeat, for valid and invalid sets, and for proportional
// representatives ((2:0) against ∞ = (1:0)), whose evaluation rows differ.
func TestMemoMatchesFreshComputation(t *testing.T) {
	inf2 := Point{X: rat.FromInt64(2), H: rat.Zero()}
	sets := [][]Point{
		Standard(3),
		Standard(5),
		StandardWithRedundancy(2, 2),
		StandardWithRedundancy(3, 1),
		{FiniteInt64(0), FiniteInt64(1), inf2},
		{FiniteInt64(1), FiniteInt64(2), FiniteInt64(1)},
	}
	for _, pts := range sets {
		for _, width := range []int{len(pts) - 1, len(pts)} {
			for call := 0; call < 2; call++ {
				if got, want := Valid(pts, width), valid(pts, width); (got == nil) != (want == nil) {
					t.Errorf("Valid(%v, %d) call %d = %v, fresh %v", pts, width, call, got, want)
				}
				got, gotErr := Interpolation(pts, width)
				want, wantErr := interpolation(pts, width)
				if (gotErr == nil) != (wantErr == nil) || (gotErr == nil && !got.Equal(want)) {
					t.Errorf("Interpolation(%v, %d) call %d = %v, %v; fresh %v, %v", pts, width, call, got, gotErr, want, wantErr)
				}
			}
		}
	}
	a, _ := Interpolation([]Point{FiniteInt64(0), FiniteInt64(1), Infinity()}, 3)
	b, _ := Interpolation([]Point{FiniteInt64(0), FiniteInt64(1), inf2}, 3)
	if a.Equal(b) {
		t.Fatal("(2:0) and (1:0) share a memo entry; their interpolation matrices differ")
	}
}

// TestInterpolationReturnsACopy: a caller that writes into its matrix does
// not change what the next caller gets.
func TestInterpolationReturnsACopy(t *testing.T) {
	pts := Standard(5)
	m, err := Interpolation(pts, 5)
	if err != nil {
		t.Fatal(err)
	}
	m.Set(0, 0, rat.FromInt64(12345))
	again, err := Interpolation(pts, 5)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := interpolation(pts, 5); !again.Equal(want) {
		t.Fatal("a write into a returned matrix reached the memo")
	}
}

// TestMemoConcurrentFirstCalls: callers racing on a point set no other test
// uses all get the fresh answer and a matrix of their own (run with -race).
func TestMemoConcurrentFirstCalls(t *testing.T) {
	pts := []Point{FiniteInt64(0), Finite(rat.NewInt64(1, 3)), Finite(rat.NewInt64(-1, 3)), Finite(rat.NewInt64(5, 7)), Infinity()}
	want, err := interpolation(pts, 5)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := Valid(pts, 5); err != nil {
				t.Error(err)
			}
			got, err := Interpolation(pts, 5)
			if err != nil || !got.Equal(want) {
				t.Errorf("concurrent Interpolation = %v, %v; want %v", got, err, want)
				return
			}
			got.Set(0, 0, rat.FromInt64(int64(i)))
		}()
	}
	wg.Wait()
}

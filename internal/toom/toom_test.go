package toom

import (
	"math/big"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/bigint"
	"repro/internal/points"
)

func randOperand(rng *rand.Rand, maxBits int) bigint.Int {
	x := bigint.Random(rng, 1+rng.Intn(maxBits))
	if rng.Intn(2) == 0 {
		x = x.Neg()
	}
	return x
}

func TestNewValidations(t *testing.T) {
	if _, err := New(1); err == nil {
		t.Error("k=1 should be rejected")
	}
	if _, err := NewWithPoints(3, points.Standard(4)); err == nil {
		t.Error("wrong point count should be rejected")
	}
	dup := []points.Point{points.FiniteInt64(0), points.FiniteInt64(1), points.FiniteInt64(1)}
	if _, err := NewWithPoints(2, dup); err == nil {
		t.Error("duplicate points should be rejected")
	}
}

func TestKnownSmallProducts(t *testing.T) {
	alg := MustNew(2).WithThreshold(64)
	cases := [][2]int64{{0, 5}, {1, 1}, {-3, 7}, {123456789, 987654321}, {-5, -5}}
	for _, c := range cases {
		a, b := bigint.FromInt64(c[0]), bigint.FromInt64(c[1])
		if got := alg.Mul(a, b); !got.Equal(a.Mul(b)) {
			t.Errorf("Mul(%d, %d) = %v", c[0], c[1], got)
		}
	}
}

func TestMulAgainstMathBig(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, k := range []int{2, 3, 4, 5} {
		alg := MustNew(k)
		for i := 0; i < 40; i++ {
			a := randOperand(rng, 8192)
			b := randOperand(rng, 8192)
			want := new(big.Int).Mul(a.ToBig(), b.ToBig())
			if got := alg.Mul(a, b).ToBig(); got.Cmp(want) != 0 {
				t.Fatalf("k=%d: Mul mismatch for %d-bit × %d-bit", k, a.BitLen(), b.BitLen())
			}
		}
	}
}

func TestMulUnbalancedOperands(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	alg := MustNew(3)
	for i := 0; i < 30; i++ {
		a := randOperand(rng, 16384)
		b := randOperand(rng, 128)
		want := new(big.Int).Mul(a.ToBig(), b.ToBig())
		if got := alg.Mul(a, b).ToBig(); got.Cmp(want) != 0 {
			t.Fatalf("unbalanced mul mismatch")
		}
	}
}

func TestMulPropertyQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	alg := MustNew(3).WithThreshold(128)
	cfg := &quick.Config{MaxCount: 60}
	f := func(int) bool {
		a, b := randOperand(rng, 4096), randOperand(rng, 4096)
		return alg.Mul(a, b).ToBig().Cmp(new(big.Int).Mul(a.ToBig(), b.ToBig())) == 0
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestMulWithStats(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	alg := MustNew(2).WithThreshold(256)
	a, b := bigint.Random(rng, 4096), bigint.Random(rng, 4096)
	var s Stats
	got := alg.MulWithStats(a, b, &s)
	if !got.Equal(a.Mul(b)) {
		t.Fatal("wrong product")
	}
	if s.BaseMuls == 0 || s.RecursiveCalls == 0 {
		t.Errorf("stats not collected: %+v", s)
	}
	// Karatsuba: 3 children per node; base mults should be ~3^depth.
	if s.BaseMuls < 9 {
		t.Errorf("expected at least two levels of recursion, got %d base muls", s.BaseMuls)
	}
}

func TestStatsGrowthMatchesExponent(t *testing.T) {
	// Doubling n should multiply base-case count by ~2k-1 / ... precisely:
	// base muls scale as (2k-1)^(levels); one extra level per k-fold n.
	rng := rand.New(rand.NewSource(35))
	for _, k := range []int{2, 3} {
		alg := MustNew(k).WithThreshold(64)
		n1 := 1 << 12
		var s1, s2 Stats
		alg.MulWithStats(bigint.Random(rng, n1), bigint.Random(rng, n1), &s1)
		alg.MulWithStats(bigint.Random(rng, n1*k), bigint.Random(rng, n1*k), &s2)
		ratio := float64(s2.BaseMuls) / float64(s1.BaseMuls)
		lo, hi := float64(2*k-1)*0.5, float64(2*k-1)*2.0
		if ratio < lo || ratio > hi {
			t.Errorf("k=%d: base-mul growth ratio %.2f outside [%.1f, %.1f]", k, ratio, lo, hi)
		}
	}
}

func TestEvalDigitsInterpolateRoundTrip(t *testing.T) {
	// Interpolate(eval(a) ⊙ eval(b)) must equal the coefficients of the
	// product polynomial — the bilinear identity ⟨U,V,W⟩.
	rng := rand.New(rand.NewSource(36))
	for _, k := range []int{2, 3, 4} {
		alg := MustNew(k)
		for trial := 0; trial < 20; trial++ {
			da := make([]bigint.Int, k)
			db := make([]bigint.Int, k)
			for i := 0; i < k; i++ {
				da[i] = bigint.FromInt64(rng.Int63n(1001) - 500)
				db[i] = bigint.FromInt64(rng.Int63n(1001) - 500)
			}
			ea := alg.EvalDigits(da, nil)
			eb := alg.EvalDigits(db, nil)
			prods := make([]bigint.Int, 2*k-1)
			for i := range prods {
				prods[i] = ea[i].Mul(eb[i])
			}
			coeffs := alg.Interpolate(prods, nil)
			// Compare against direct convolution.
			want := make([]bigint.Int, 2*k-1)
			for i := range want {
				want[i] = bigint.Zero()
			}
			for i := 0; i < k; i++ {
				for j := 0; j < k; j++ {
					want[i+j] = want[i+j].Add(da[i].Mul(db[j]))
				}
			}
			for i := range want {
				if !coeffs[i].Equal(want[i]) {
					t.Fatalf("k=%d coeff %d = %v, want %v", k, i, coeffs[i], want[i])
				}
			}
		}
	}
}

func TestApplyRowsToBlocks(t *testing.T) {
	rows := [][]int64{{1, 1}, {1, -1}, {2, 3}}
	blocks := [][]bigint.Int{
		{bigint.FromInt64(1), bigint.FromInt64(2)},
		{bigint.FromInt64(10), bigint.FromInt64(20)},
	}
	out := ApplyRowsToBlocks(rows, blocks)
	wants := [][]int64{{11, 22}, {-9, -18}, {32, 64}}
	for i, w := range wants {
		for j, v := range w {
			if got, _ := out[i][j].Int64(); got != v {
				t.Errorf("out[%d][%d] = %d, want %d", i, j, got, v)
			}
		}
	}
}

func TestMulLazyMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, k := range []int{2, 3} {
		alg := MustNew(k)
		for _, depth := range []int{1, 2, 3} {
			for trial := 0; trial < 15; trial++ {
				a := randOperand(rng, 6000)
				b := randOperand(rng, 6000)
				got, err := alg.MulLazy(a, b, depth)
				if err != nil {
					t.Fatalf("k=%d depth=%d: %v", k, depth, err)
				}
				want := new(big.Int).Mul(a.ToBig(), b.ToBig())
				if got.ToBig().Cmp(want) != 0 {
					t.Fatalf("k=%d depth=%d: lazy product mismatch", k, depth)
				}
			}
		}
	}
}

func TestMulLazyErrors(t *testing.T) {
	alg := MustNew(3)
	if _, err := alg.MulLazy(bigint.FromInt64(5), bigint.FromInt64(7), 0); err == nil {
		t.Error("depth 0 should error")
	}
	// Depth too deep for tiny operands: k^depth > bits.
	if _, err := alg.MulLazy(bigint.FromInt64(5), bigint.FromInt64(7), 10); err == nil {
		t.Error("absurd depth should error")
	}
	if z, err := alg.MulLazy(bigint.Zero(), bigint.FromInt64(7), 1); err != nil || !z.IsZero() {
		t.Error("0 · x should be 0 without error")
	}
}

func TestMulLazyStats(t *testing.T) {
	// Lazy depth l with k: exactly (2k-1)^l base multiplications.
	rng := rand.New(rand.NewSource(38))
	for _, k := range []int{2, 3} {
		alg := MustNew(k)
		for _, depth := range []int{1, 2} {
			var s Stats
			a, b := bigint.Random(rng, 4096), bigint.Random(rng, 4096)
			if _, err := alg.MulLazyWithStats(a, b, depth, &s); err != nil {
				t.Fatal(err)
			}
			want := int64(1)
			for i := 0; i < depth; i++ {
				want *= int64(2*k - 1)
			}
			if s.BaseMuls != want {
				t.Errorf("k=%d depth=%d: %d base muls, want %d", k, depth, s.BaseMuls, want)
			}
		}
	}
}

func TestWithThresholdFloor(t *testing.T) {
	alg := MustNew(2).WithThreshold(1)
	if alg.ThresholdBits() != 64 {
		t.Errorf("threshold floor not applied: %d", alg.ThresholdBits())
	}
}

// TestNewIsBuiltOnce: New(k) hands every caller the one algorithm built
// for k, equal field by field to a fresh construction, and the options
// derive copies that leave it untouched.
func TestNewIsBuiltOnce(t *testing.T) {
	for _, k := range []int{2, 3, 4} {
		alg := MustNew(k)
		if MustNew(k) != alg {
			t.Fatalf("k=%d: New built a second algorithm", k)
		}
		fresh, err := NewWithPoints(k, points.Standard(2*k-1))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(alg, fresh) {
			t.Fatalf("k=%d: memoized algorithm differs from a fresh construction", k)
		}
		_ = alg.WithThreshold(64)
		_ = alg.WithoutEvalReuse()
		_ = alg.WithInterpolationSequence(nil)
		if !reflect.DeepEqual(MustNew(k), fresh) {
			t.Fatalf("k=%d: an option changed the shared algorithm", k)
		}
	}
}

// TestNewConcurrentFirstCalls: callers racing on a k no other test builds
// all get one algorithm (run with -race).
func TestNewConcurrentFirstCalls(t *testing.T) {
	const k = 6
	got := make([]*Algorithm, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = MustNew(k)
		}()
	}
	wg.Wait()
	for i, alg := range got {
		if alg != got[0] {
			t.Fatalf("caller %d got a different algorithm", i)
		}
	}
	fresh, err := NewWithPoints(k, points.Standard(2*k-1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[0], fresh) {
		t.Fatal("memoized algorithm differs from a fresh construction")
	}
}

func TestScaledInterpolationMatrices(t *testing.T) {
	// The scaled integer interpolation must reproduce W^T exactly.
	for _, k := range []int{2, 3, 4, 5} {
		alg := MustNew(k)
		wt, err := points.Interpolation(alg.Points(), 2*k-1)
		if err != nil {
			t.Fatal(err)
		}
		num, den := alg.WScaled()
		for i := 0; i < 2*k-1; i++ {
			for j := 0; j < 2*k-1; j++ {
				got := num[i][j]
				w := wt.At(i, j)
				// w == got/den
				nv, _ := w.Num().Int64()
				dv, _ := w.Den().Int64()
				if nv*(den/dv) != got {
					t.Fatalf("k=%d: scaled entry (%d,%d) = %d, want %v·%d", k, i, j, got, w, den)
				}
			}
		}
	}
}

func TestConcurrentUse(t *testing.T) {
	// Algorithm is immutable; concurrent Muls must not race (run with -race).
	alg := MustNew(3)
	rng := rand.New(rand.NewSource(39))
	type pair struct{ a, b bigint.Int }
	pairs := make([]pair, 8)
	for i := range pairs {
		pairs[i] = pair{bigint.Random(rng, 2048), bigint.Random(rng, 2048)}
	}
	done := make(chan bool)
	for _, p := range pairs {
		go func(p pair) {
			defer func() { done <- true }()
			if !alg.Mul(p.a, p.b).Equal(p.a.Mul(p.b)) {
				t.Error("concurrent product mismatch")
			}
		}(p)
	}
	for range pairs {
		<-done
	}
}

func TestEvalReuseAblation(t *testing.T) {
	// Zanoni's evaluation reuse: ±v point pairs share their even/odd digit
	// sums. Same results, strictly fewer word operations.
	rng := rand.New(rand.NewSource(151))
	for _, k := range []int{3, 4, 5} {
		withReuse := MustNew(k)
		without := withReuse.WithoutEvalReuse()
		a, b := bigint.Random(rng, 1<<14), bigint.Random(rng, 1<<14)
		var sr, sn Stats
		r1 := withReuse.MulWithStats(a, b, &sr)
		r2 := without.MulWithStats(a, b, &sn)
		if !r1.Equal(r2) {
			t.Fatalf("k=%d: reuse changed the product", k)
		}
		if sr.WordOps >= sn.WordOps {
			t.Errorf("k=%d: reuse should cost less: %d vs %d word ops", k, sr.WordOps, sn.WordOps)
		}
	}
}

func TestDetectPairsStructure(t *testing.T) {
	// Standard Toom-3 points {0, 1, -1, 2, inf}: exactly one (±1) pair;
	// 0, 2, inf are singles.
	alg := MustNew(3)
	if len(alg.evalPairs) != 1 {
		t.Fatalf("pairs = %v", alg.evalPairs)
	}
	if len(alg.evalSingles) != 3 {
		t.Fatalf("singles = %v", alg.evalSingles)
	}
	// Toom-4 points {0, 1, -1, 2, -2, 3, inf}: (±1), (±2) pairs.
	alg4 := MustNew(4)
	if len(alg4.evalPairs) != 2 {
		t.Fatalf("k=4 pairs = %v", alg4.evalPairs)
	}
}

package toom_test

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"repro/internal/bigint"
	"repro/internal/points"
	"repro/internal/toom"
	"repro/internal/toomgraph"
)

// identityVariants returns the algorithms the count-identity tests cover:
// k ∈ {2, 3, 4} at thresholds 64 and 256, each plain, without evaluation
// reuse, and with the catalogued Toom-Graph interpolation sequence.
func identityVariants() map[string]*toom.Algorithm {
	out := make(map[string]*toom.Algorithm)
	for _, k := range []int{2, 3, 4} {
		for _, th := range []int{64, 256} {
			alg := toom.MustNew(k).WithThreshold(th)
			out[fmt.Sprintf("k%d/t%d", k, th)] = alg
			out[fmt.Sprintf("k%d/t%d/noreuse", k, th)] = alg.WithoutEvalReuse()
			out[fmt.Sprintf("k%d/t%d/toomgraph", k, th)] = alg.WithInterpolationSequence(toomgraph.ForK(k))
		}
	}
	return out
}

// signedRandom returns a random Int of exactly bits bits (0 for bits == 0)
// with a random sign.
func signedRandom(rng *rand.Rand, bits int) bigint.Int {
	if bits == 0 {
		return bigint.Zero()
	}
	x := bigint.Random(rng, bits)
	if rng.Intn(2) == 0 {
		x = x.Neg()
	}
	return x
}

// checkIdentity requires MulWithStats and the Int-based reference to agree
// on the product and on all five Stats fields, and the product to match
// math/big.
func checkIdentity(t *testing.T, alg *toom.Algorithm, a, b bigint.Int) {
	t.Helper()
	var got, want toom.Stats
	z := alg.MulWithStats(a, b, &got)
	ref := alg.RefMulWithStats(a, b, &want)
	if !z.Equal(ref) {
		t.Fatalf("%d×%d bits: product differs from the reference", a.BitLen(), b.BitLen())
	}
	if z.ToBig().Cmp(new(big.Int).Mul(a.ToBig(), b.ToBig())) != 0 {
		t.Fatalf("%d×%d bits: product differs from math/big", a.BitLen(), b.BitLen())
	}
	if got != want {
		t.Fatalf("%d×%d bits: stats %+v, reference %+v", a.BitLen(), b.BitLen(), got, want)
	}
}

// identitySizes are the operand bit lengths of the count-identity tables:
// zero, one limb, and 64·j ± 1 bits around every recursion boundary up to
// the parallel leaf's size.
var identitySizes = []int{0, 1, 63, 64, 65, 127, 128, 129, 255, 256, 257, 511, 513, 1023, 1025, 4095, 4097, 16383, 16385}

// TestMulStatsMatchReference is the count-identity table: the workspace
// recursion must charge exactly what the Int-based recursion charged, on
// signed, zero, unbalanced and limb-boundary (64·j ± 1 bit) operands.
func TestMulStatsMatchReference(t *testing.T) {
	for name, alg := range identityVariants() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1201))
			for _, n := range identitySizes {
				// Balanced, then unbalanced against a short and a long partner.
				checkIdentity(t, alg, signedRandom(rng, n), signedRandom(rng, n))
				checkIdentity(t, alg, signedRandom(rng, n), signedRandom(rng, 1+n/7))
				checkIdentity(t, alg, signedRandom(rng, 1+n/3), signedRandom(rng, n+191))
			}
		})
	}
}

// FuzzToomMulStats drives the count identity over random sizes and signs.
func FuzzToomMulStats(f *testing.F) {
	f.Add(int64(1), uint16(4096), uint16(4096), uint8(0))
	f.Add(int64(2), uint16(257), uint16(63), uint8(7))
	f.Add(int64(3), uint16(0), uint16(1000), uint8(13))
	f.Add(int64(4), uint16(16385), uint16(16383), uint8(17))
	// Doubtful lengths for the Toom-2 kernel's count walk: bit lengths
	// summing to 1 (mod 64), at t256 (variant 0) and t64 (variant 3).
	f.Add(int64(5), uint16(16385), uint16(16384), uint8(0))
	f.Add(int64(6), uint16(257), uint16(256), uint8(0))
	f.Add(int64(7), uint16(129), uint16(128), uint8(3))
	f.Add(int64(8), uint16(65), uint16(64), uint8(3))
	algs := identityVariants()
	names := make([]string, 0, len(algs))
	for name := range algs {
		names = append(names, name)
	}
	// Map iteration order is random; index a sorted list so a corpus entry
	// always picks the same variant.
	sort.Strings(names)
	f.Fuzz(func(t *testing.T, seed int64, aBits, bBits uint16, variant uint8) {
		rng := rand.New(rand.NewSource(seed))
		alg := algs[names[int(variant)%len(names)]]
		checkIdentity(t, alg, signedRandom(rng, int(aBits)%20000), signedRandom(rng, int(bBits)%20000))
	})
}

// TestToom2KernelDispatch pins which algorithms run the Toom-2 kernel:
// Karatsuba on the points 0, 1, ∞ at any threshold and without evaluation
// reuse, and nothing with an interpolation sequence, k ≥ 3 or other points.
func TestToom2KernelDispatch(t *testing.T) {
	k2 := toom.MustNew(2)
	minusOne, err := toom.NewWithPoints(2, []points.Point{points.FiniteInt64(0), points.FiniteInt64(-1), points.Infinity()})
	if err != nil {
		t.Fatal(err)
	}
	reordered, err := toom.NewWithPoints(2, []points.Point{points.FiniteInt64(1), points.FiniteInt64(0), points.Infinity()})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		alg  *toom.Algorithm
		want bool
	}{
		{"k2", k2, true},
		{"k2/t64", k2.WithThreshold(64), true},
		{"k2/noreuse", k2.WithoutEvalReuse(), true},
		{"k2/toomgraph", k2.WithInterpolationSequence(toomgraph.ForK(2)), false},
		{"k2/toomgraph/t64", k2.WithInterpolationSequence(toomgraph.ForK(2)).WithThreshold(64), false},
		{"k2/points(0,-1,inf)", minusOne, false},
		{"k2/points(1,0,inf)", reordered, false},
		{"k3", toom.MustNew(3), false},
		{"k4", toom.MustNew(4), false},
	} {
		if got := c.alg.UsesToom2Kernel(); got != c.want {
			t.Errorf("%s: kernel %v, want %v", c.name, got, c.want)
		}
	}
}

// TestToom2KernelMatchesGeneric requires the Toom-2 kernel to reproduce the
// generic frame recursion exactly, products and all five Stats fields,
// through every entry point that reaches it: MulWithStats and
// MulSharesTo, on zero, signed, unbalanced and 64·j ± 1-bit operands.
func TestToom2KernelMatchesGeneric(t *testing.T) {
	for _, th := range []int{64, 256} {
		kern := toom.MustNew(2).WithThreshold(th)
		gen := kern.Generic()
		if !kern.UsesToom2Kernel() || gen.UsesToom2Kernel() {
			t.Fatal("Generic does not switch the kernel off")
		}
		t.Run(fmt.Sprintf("t%d", th), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1400 + th)))
			same := func(what string, run func(*toom.Algorithm, *toom.Stats) bigint.Int, want *big.Int) {
				t.Helper()
				var got, ref toom.Stats
				z, zr := run(kern, &got), run(gen, &ref)
				if !z.Equal(zr) || z.ToBig().Cmp(want) != 0 {
					t.Fatalf("%s: product differs from the generic recursion or math/big", what)
				}
				if got != ref {
					t.Fatalf("%s: stats %+v, generic %+v", what, got, ref)
				}
			}
			for _, n := range identitySizes {
				for _, m := range []int{n, 1 + n/7, n + 191} {
					a, b := signedRandom(rng, n), signedRandom(rng, m)
					same(fmt.Sprintf("MulWithStats %d×%d bits", n, m), func(alg *toom.Algorithm, st *toom.Stats) bigint.Int {
						return alg.MulWithStats(a, b, st)
					}, new(big.Int).Mul(a.ToBig(), b.ToBig()))
				}
				// Nine signed shares per operand, some zero, some wider
				// than the shift, as the parallel leaf recomposes them.
				shift := 1 + n/9
				sa, sb := make([]bigint.Int, 9), make([]bigint.Int, 9)
				for i := range sa {
					sa[i], sb[i] = signedRandom(rng, rng.Intn(shift+4)), signedRandom(rng, rng.Intn(shift+4))
				}
				want := new(big.Int).Mul(bigRecompose(sa, shift), bigRecompose(sb, shift))
				same(fmt.Sprintf("MulSharesTo 9×%d bits", shift), func(alg *toom.Algorithm, st *toom.Stats) bigint.Int {
					var z bigint.Acc
					alg.MulSharesTo(&z, sa, sb, shift, st)
					return z.Value()
				}, want)
			}
		})
	}
}

// structured returns a nonnegative operand of about n bits in one of the
// shapes that put the Toom-2 kernel's product and c1 lengths next to a word
// boundary: all ones (2^n − 1), a single bit (2^(n−1)), 2^(n−1) ± 1, and
// random limbs with every other limb zero.
func structured(rng *rand.Rand, n int, shape int) bigint.Int {
	if n == 0 {
		return bigint.Zero()
	}
	one := big.NewInt(1)
	p := new(big.Int).Lsh(one, uint(n-1))
	switch shape {
	case 0:
		return bigint.FromBig(p.Sub(p.Lsh(p, 1), one))
	case 1:
		return bigint.FromBig(p)
	case 2:
		return bigint.FromBig(p.Add(p, one))
	case 3:
		return bigint.FromBig(p.Sub(p, one))
	}
	words := bigint.Random(rng, n).ToBig().Bits()
	for i := 1; i < len(words)-1; i += 2 {
		words[i] = 0
	}
	return bigint.FromBig(new(big.Int).SetBits(words))
}

// structuredShapes is the number of shapes structured draws.
const structuredShapes = 5

// TestToom2KernelStructuredCensus runs the Toom-2 kernel against the
// generic frame recursion and the Int-based reference on structured
// operands, whose digits' products and c1 sums sit at or next to a word
// boundary, so the count walk's exact fallbacks fire: every pair of shapes,
// balanced and unbalanced, at thresholds 64 and 256, through MulWithStats
// (kernel, generic and reference agree on the product and all five Stats
// fields) and MulSharesTo (kernel and generic agree with each other and the
// product with math/big).
func TestToom2KernelStructuredCensus(t *testing.T) {
	rng := rand.New(rand.NewSource(1406))
	for _, th := range []int{64, 256} {
		kern := toom.MustNew(2).WithThreshold(th)
		gen := kern.Generic()
		for _, n := range []int{64, 65, 129, 257, 513, 1025, 4097, 16385} {
			for _, m := range []int{n, n - 1, 1 + n/3} {
				for sa := 0; sa < structuredShapes; sa++ {
					for sb := 0; sb < structuredShapes; sb++ {
						a, b := structured(rng, n, sa), structured(rng, m, sb)
						if rng.Intn(2) == 0 {
							b = b.Neg()
						}
						checkIdentity(t, kern, a, b)
						var got, ref toom.Stats
						if z, zg := kern.MulWithStats(a, b, &got), gen.MulWithStats(a, b, &ref); !z.Equal(zg) || got != ref {
							t.Fatalf("t%d, %d×%d bits, shapes %d×%d: kernel %+v, generic %+v", th, n, m, sa, sb, got, ref)
						}
					}
				}
			}
			// Nine shares per operand of one shape each, as the parallel
			// leaf recomposes them.
			shift := 1 + n/9
			for sa := 0; sa < structuredShapes; sa++ {
				for sb := 0; sb < structuredShapes; sb++ {
					sharesA, sharesB := make([]bigint.Int, 9), make([]bigint.Int, 9)
					for i := range sharesA {
						sharesA[i], sharesB[i] = structured(rng, shift, sa), structured(rng, shift-i%2, sb)
					}
					want := new(big.Int).Mul(bigRecompose(sharesA, shift), bigRecompose(sharesB, shift))
					var got, ref toom.Stats
					var z, zg bigint.Acc
					kern.MulSharesTo(&z, sharesA, sharesB, shift, &got)
					gen.MulSharesTo(&zg, sharesA, sharesB, shift, &ref)
					if !z.Value().Equal(zg.Value()) || z.Value().ToBig().Cmp(want) != 0 || got != ref {
						t.Fatalf("t%d, MulSharesTo 9×%d bits, shapes %d×%d: kernel %+v, generic %+v", th, shift, sa, sb, got, ref)
					}
				}
			}
		}
	}
}

// bigRecompose is Σ coeffs[i]·2^{i·shift} in math/big.
func bigRecompose(coeffs []bigint.Int, shift int) *big.Int {
	z := new(big.Int)
	for i, c := range coeffs {
		z.Add(z, new(big.Int).Lsh(c.ToBig(), uint(i*shift)))
	}
	return z
}

// TestRecomposeAgainstBig checks Recompose against math/big on signed,
// zero and all-negative coefficient vectors, with coefficients narrower and
// wider than the shift (so neighbours overlap and carries cross them),
// including the epilogue's shape of 72 coefficients of about 1,820 bits.
func TestRecomposeAgainstBig(t *testing.T) {
	rng := rand.New(rand.NewSource(1404))
	for _, shift := range []int{1, 25, 64, 127, 1820} {
		for _, n := range []int{0, 1, 2, 9, 72} {
			for _, mode := range []string{"mixed", "nonnegative", "negative", "zeros"} {
				coeffs := make([]bigint.Int, n)
				for i := range coeffs {
					bits := rng.Intn(shift + 70) // some wider than the shift
					switch mode {
					case "mixed":
						coeffs[i] = signedRandom(rng, bits)
					case "nonnegative":
						coeffs[i] = signedRandom(rng, bits).Abs()
					case "negative":
						coeffs[i] = signedRandom(rng, bits).Abs().Neg()
					case "zeros":
						if i%2 == 1 {
							coeffs[i] = signedRandom(rng, bits)
						}
					}
				}
				if got, want := toom.Recompose(coeffs, shift).ToBig(), bigRecompose(coeffs, shift); got.Cmp(want) != 0 {
					t.Fatalf("shift %d, %d %s coefficients: Recompose differs from math/big", shift, n, mode)
				}
			}
		}
	}
}

// TestLeafMulAllocs pins the allocation discipline of MulWithStats at the
// parallel algorithm's leaf shape (k = 2, 256-bit threshold, ~16.4 kbit
// operands, the Toom-2 kernel) and over operand shapes from 15k to 18k
// bits: in steady state the returned product is the only heap allocation,
// at GOMAXPROCS 1 and 2.
func TestLeafMulAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled workspaces at random")
	}
	rng := rand.New(rand.NewSource(1202))
	type shape struct{ a, b bigint.Int }
	shapes := []shape{{bigint.Random(rng, 16400), bigint.Random(rng, 16390).Neg()}}
	for bits := 15000; bits <= 18000; bits += 500 {
		shapes = append(shapes, shape{bigint.Random(rng, bits), bigint.Random(rng, bits-1-rng.Intn(200))})
	}
	alg := toom.MustNew(2)
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, sh := range shapes {
				// Steady state is the best of several batches: the first
				// batch builds the pooled workspace, and a later one may
				// rebuild it once after a GC or a move to another P.
				var st toom.Stats
				best := math.Inf(1)
				for batch := 0; batch < 5; batch++ {
					const runs = 40
					var m0, m1 runtime.MemStats
					runtime.ReadMemStats(&m0)
					for i := 0; i < runs; i++ {
						alg.MulWithStats(sh.a, sh.b, &st)
					}
					runtime.ReadMemStats(&m1)
					best = min(best, float64(m1.Mallocs-m0.Mallocs)/runs)
				}
				if best > 2 {
					t.Errorf("%d×%d bits: MulWithStats allocates %.2f times per op in steady state, want <= 2", sh.a.BitLen(), sh.b.BitLen(), best)
				}
			}
		})
	}
}

// TestMulWithStatsConcurrent runs the pooled-workspace recursion from
// several goroutines at once, as the parallel algorithm's ranks do, and
// checks every product and count against the reference.
func TestMulWithStatsConcurrent(t *testing.T) {
	algs := []*toom.Algorithm{toom.MustNew(2), toom.MustNew(3).WithThreshold(64), toom.MustNew(4)}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1300 + g)))
			for i := 0; i < 20; i++ {
				alg := algs[(g+i)%len(algs)]
				a, b := signedRandom(rng, 1+rng.Intn(6000)), signedRandom(rng, 1+rng.Intn(6000))
				var got, want toom.Stats
				if z := alg.MulWithStats(a, b, &got); !z.Equal(alg.RefMulWithStats(a, b, &want)) || got != want {
					t.Errorf("goroutine %d, op %d: product or stats differ from the reference", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkLeafMulWithStats times MulWithStats at the parallel algorithm's
// leaf shape (compare with Int.Mul at the same size, the kernel ladder).
func BenchmarkLeafMulWithStats(b *testing.B) {
	rng := rand.New(rand.NewSource(1203))
	x, y := bigint.Random(rng, 16400), bigint.Random(rng, 16390)
	alg := toom.MustNew(2)
	var st toom.Stats
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = alg.MulWithStats(x, y, &st)
	}
}

// BenchmarkLeafMulGeneric times the generic frame recursion on the same
// operands and algorithm: BenchmarkLeafMulWithStats runs the Toom-2 kernel,
// so the pair is the kernel's per-layer before and after in one binary.
func BenchmarkLeafMulGeneric(b *testing.B) {
	rng := rand.New(rand.NewSource(1203))
	x, y := bigint.Random(rng, 16400), bigint.Random(rng, 16390)
	alg := toom.MustNew(2).Generic()
	var st toom.Stats
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = alg.MulWithStats(x, y, &st)
	}
}

// BenchmarkLeafMulLadder is the kernel ladder's Int.Mul on the same
// operands: the machine-independent yardstick for BenchmarkLeafMulWithStats.
func BenchmarkLeafMulLadder(b *testing.B) {
	rng := rand.New(rand.NewSource(1203))
	x, y := bigint.Random(rng, 16400), bigint.Random(rng, 16390)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = x.Mul(y)
	}
}

// BenchmarkRecompose times Recompose at the fault-tolerant epilogue's shape:
// 72 coefficients of about 1,820 bits at a 1,820-bit shift.
func BenchmarkRecompose(b *testing.B) {
	rng := rand.New(rand.NewSource(1405))
	coeffs := make([]bigint.Int, 72)
	for i := range coeffs {
		coeffs[i] = bigint.Random(rng, 1800+rng.Intn(40))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = toom.Recompose(coeffs, 1820)
	}
}

// benchSink keeps the benchmarked products live.
var benchSink bigint.Int

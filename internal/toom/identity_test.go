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

// TestMulStatsMatchReference is the count-identity table: the workspace
// recursion must charge exactly what the Int-based recursion charged, on
// signed, zero, unbalanced and limb-boundary (64·j ± 1 bit) operands.
func TestMulStatsMatchReference(t *testing.T) {
	sizes := []int{0, 1, 63, 64, 65, 127, 128, 129, 255, 256, 257, 511, 513, 1023, 1025, 4095, 4097, 16383, 16385}
	for name, alg := range identityVariants() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1201))
			for _, n := range sizes {
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

// TestLeafMulAllocs pins the workspace recursion's allocation discipline at
// the parallel algorithm's leaf shape (k = 2, 256-bit threshold, ~16.4 kbit
// operands): in steady state the returned product is the only heap
// allocation, at GOMAXPROCS 1 and 2.
func TestLeafMulAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled workspaces at random")
	}
	rng := rand.New(rand.NewSource(1202))
	a, b := bigint.Random(rng, 16400), bigint.Random(rng, 16390).Neg()
	alg := toom.MustNew(2)
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			// Steady state is the best of several batches: the first batch
			// builds the pooled workspace, and a later one may rebuild it
			// once after a GC or a move to another P.
			var st toom.Stats
			best := math.Inf(1)
			for batch := 0; batch < 5; batch++ {
				const runs = 40
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				for i := 0; i < runs; i++ {
					alg.MulWithStats(a, b, &st)
				}
				runtime.ReadMemStats(&m1)
				best = min(best, float64(m1.Mallocs-m0.Mallocs)/runs)
			}
			if best > 2 {
				t.Errorf("MulWithStats allocates %.2f times per op in steady state, want <= 2", best)
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

// benchSink keeps the benchmarked products live.
var benchSink bigint.Int

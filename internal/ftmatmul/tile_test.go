package ftmatmul_test

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bigint"
	"repro/internal/ftmatmul"
	"repro/internal/mat"
)

// tileEntry draws one signed tile entry: zero, a 64·j ± 1-bit value that
// sits on a limb boundary, or a random value of one to eight limbs.
func tileEntry(rng *rand.Rand, maxBits int) bigint.Int {
	var v bigint.Int
	switch rng.Intn(8) {
	case 0:
		return bigint.Zero()
	case 1:
		v = bigint.Random(rng, max(1, min(maxBits, 64*(1+rng.Intn(8))+rng.Intn(3)-1)))
	default:
		v = bigint.Random(rng, 1+rng.Intn(maxBits))
	}
	if rng.Intn(2) == 0 {
		v = v.Neg()
	}
	return v
}

// randTilePair draws an m×m pair of flattened tiles. pad zeroes the last
// row and column of a and b, as Multiply's padding to an even square does.
func randTilePair(rng *rand.Rand, m, maxBits int, pad bool) (a, b []bigint.Int) {
	a, b = make([]bigint.Int, m*m), make([]bigint.Int, m*m)
	for i := range a {
		a[i], b[i] = tileEntry(rng, maxBits), tileEntry(rng, maxBits)
	}
	if pad {
		for t := 0; t < m; t++ {
			a[(m-1)*m+t], a[t*m+m-1] = bigint.Zero(), bigint.Zero()
			b[(m-1)*m+t], b[t*m+m-1] = bigint.Zero(), bigint.Zero()
		}
	}
	return a, b
}

// checkTileMul requires the accumulator kernel to match the Int-based
// reference entry for entry and in charged work, and the entries to match
// the independent naive matrix product.
func checkTileMul(t *testing.T, ctx string, m int, a, b []bigint.Int) {
	t.Helper()
	got, work := ftmatmul.TileMul(m, a, b)
	want, refWork := ftmatmul.RefTileMul(m, a, b)
	if work != refWork {
		t.Fatalf("%s: work %d, reference %d", ctx, work, refWork)
	}
	naive := mat.IntMatFromFlat(m, m, a).MulNaive(mat.IntMatFromFlat(m, m, b)).Flat()
	for i := range want {
		if got[i].Cmp(want[i]) != 0 || got[i].Cmp(naive[i]) != 0 {
			t.Fatalf("%s: entry %d = %s, reference %s, naive %s", ctx, i, got[i], want[i], naive[i])
		}
	}
}

// checkComboEval does the same for a signed tile combination.
func checkComboEval(t *testing.T, ctx string, tiles [][]bigint.Int, signs []int) {
	t.Helper()
	n := len(tiles[0])
	got, work := ftmatmul.ComboEval(n, tiles, signs)
	want, refWork := ftmatmul.RefComboEval(n, tiles, signs)
	if work != refWork {
		t.Fatalf("%s: work %d, reference %d", ctx, work, refWork)
	}
	for i := range want {
		if got[i].Cmp(want[i]) != 0 {
			t.Fatalf("%s: entry %d = %s, reference %s", ctx, i, got[i], want[i])
		}
	}
}

// TestTileMulMatchesReference pins the accumulator tile kernels to the
// Int-based reference: identical entries and identical charged work, over
// tile sizes up to the workload's 32×32, with zero padding, zero operands,
// mixed signs, 1–8-limb and limb-boundary entries, dot products that cancel
// exactly in mid sum, and every sign pattern of a Strassen operand.
func TestTileMulMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1303))
	for _, m := range []int{1, 2, 3, 8, 32} {
		trials := 12
		if m == 32 {
			trials = 2
		}
		for trial := 0; trial < trials; trial++ {
			ctx := fmt.Sprintf("m=%d trial=%d", m, trial)
			a, b := randTilePair(rng, m, 512, trial%3 == 1)
			if m >= 2 && trial%3 == 2 {
				// Entry (0,0): a_01·b_10 = −a_00·b_00, so the partial sum
				// returns to zero at k = 1; for m >= 3 later terms follow.
				a[0], b[0] = bigint.Random(rng, 1+rng.Intn(300)), bigint.Random(rng, 1+rng.Intn(300)).Neg()
				a[1], b[m] = a[0].Neg(), b[0]
			}
			checkTileMul(t, ctx, m, a, b)
			for _, signs := range [][]int{{1}, {-1}, {1, 1}, {1, -1}, {-1, 1}, {1, -1, -1, 1}} {
				tiles := [][]bigint.Int{a, b, a, b}[:len(signs)]
				checkComboEval(t, fmt.Sprintf("%s signs=%v", ctx, signs), tiles, signs)
			}
		}
	}

	// A lone positive term is the Strassen operand that aliases its tile.
	a, _ := randTilePair(rng, 3, 200, false)
	if got, work := ftmatmul.ComboEval(len(a), [][]bigint.Int{a}, []int{1}); &got[0] != &a[0] || work != 0 {
		t.Fatalf("single positive term: aliased=%v work=%d, want the tile itself at no charge", &got[0] == &a[0], work)
	}

	// Exact cancellation is charged one word: [x −x]·[y; y] has entry 0
	// and costs two products, the first partial sum, and one word for the
	// zero it returns to.
	x, y := bigint.Random(rng, 200), bigint.Random(rng, 130).Neg()
	a = []bigint.Int{x, x.Neg(), bigint.Zero(), bigint.Zero()}
	b := []bigint.Int{y, bigint.Zero(), y, bigint.Zero()}
	got, work := ftmatmul.TileMul(2, a, b)
	products := 2 * int64(x.WordLen()*y.WordLen())
	if want := products + int64(x.Mul(y).WordLen()) + 1; !got[0].IsZero() || work != want {
		t.Fatalf("cancelling dot product: entry %s work %d, want 0 and %d", got[0], work, want)
	}
	checkTileMul(t, "cancellation", 2, a, b)

	// Workload shapes: entries of exactly four and five limbs, the operands
	// of every entry product in ft_matmul_faults (256-bit entries and
	// 257-bit Strassen sums), plus both limb boundaries, 2^256−1 and 2^256.
	// For each pair of shapes and each sign pairing, row 0 of a 3×3 tile
	// makes entry (0,0) cancel exactly at k = 1 and entry (0,1) cross zero
	// there (a_01·b_11 outweighs a_00·b_01); k = 2 then builds on both.
	pow := func(e uint) bigint.Int { return bigint.FromBig(new(big.Int).Lsh(big.NewInt(1), e)) }
	shapes := []bigint.Int{
		bigint.Random(rng, 255), bigint.Random(rng, 256), bigint.Random(rng, 257),
		bigint.Random(rng, 319), bigint.Random(rng, 320),
		pow(256).Sub(bigint.One()), pow(256),
	}
	signed := func(v bigint.Int, s int) bigint.Int {
		if s < 0 {
			return v.Neg()
		}
		return v
	}
	shapeTile := func(m int) []bigint.Int {
		tile := make([]bigint.Int, m*m)
		for i := range tile {
			tile[i] = signed(shapes[rng.Intn(len(shapes))], 1-2*rng.Intn(2))
		}
		return tile
	}
	for ui, u := range shapes {
		for vi, v := range shapes {
			for _, sg := range [][2]int{{1, 1}, {1, -1}, {-1, 1}, {-1, -1}} {
				a, b := shapeTile(3), shapeTile(3)
				a[0], a[1] = signed(u, sg[0]), signed(u, -sg[0])
				b[0], b[3] = signed(v, sg[1]), signed(v, sg[1])
				b[1], b[4] = signed(v, sg[1]), signed(v.Add(v), sg[1])
				checkTileMul(t, fmt.Sprintf("shapes %d×%d signs %v", ui, vi, sg), 3, a, b)
			}
		}
	}
	for trial := 0; trial < 4; trial++ {
		for _, signs := range [][]int{{1, 1}, {1, -1}, {-1, 1}, {-1, -1}} {
			// Strassen operands from ComboEval (sums and differences of
			// 256-bit tiles, up to 257 bits) fed into TileMul.
			a, _ := ftmatmul.ComboEval(64, [][]bigint.Int{shapeTile(8), shapeTile(8)}, signs)
			b, _ := ftmatmul.ComboEval(64, [][]bigint.Int{shapeTile(8), shapeTile(8)}, signs)
			checkTileMul(t, fmt.Sprintf("combo trial=%d signs=%v", trial, signs), 8, a, b)
		}
	}
}

// FuzzTileMulWork searches random shapes, entry lengths and sign patterns
// for a tile product or operand sum whose entries or charged work differ
// from the Int-based reference.
func FuzzTileMulWork(f *testing.F) {
	f.Add(int64(1), uint8(1), uint16(64), uint8(0))
	f.Add(int64(2), uint8(3), uint16(129), uint8(5))
	f.Add(int64(3), uint8(8), uint16(512), uint8(10))
	f.Add(int64(4), uint8(5), uint16(65), uint8(255))
	// Entries up to 256 and 257 bits: the workload's tile entries and
	// Strassen sums, on both sides of Dot's 4×4/5×5 split.
	f.Add(int64(5), uint8(7), uint16(255), uint8(6))
	f.Add(int64(6), uint8(11), uint16(256), uint8(19))
	// Widest entry exactly 320 bits in both tiles (the whole tile on Dot,
	// 5×5 products) and exactly 321 bits (six limbs: the whole tile on the
	// Acc ladder).
	f.Add(int64(7), uint8(7), uint16(319), uint8(6))
	f.Add(int64(8), uint8(7), uint16(320), uint8(12))
	f.Fuzz(func(t *testing.T, seed int64, m uint8, maxBits uint16, signs uint8) {
		rng := rand.New(rand.NewSource(seed))
		dim := 1 + int(m)%12
		a, b := randTilePair(rng, dim, 1+int(maxBits)%1024, signs&1 != 0)
		checkTileMul(t, "tileMul", dim, a, b)
		// Bits 1–2 pick the term count, bits 3–6 the signs.
		nterms := 1 + int(signs>>1)%4
		pattern := make([]int, nterms)
		for i := range pattern {
			pattern[i] = 1
			if signs>>(3+i)&1 != 0 {
				pattern[i] = -1
			}
		}
		checkComboEval(t, "comboEval", [][]bigint.Int{a, b, b, a}[:nterms], pattern)
	})
}

// workloadTiles draws one 32×32 tile pair of signed entries below 2^256,
// the shape of ft_matmul_faults' 64×64 operands.
func workloadTiles() (a, b []bigint.Int) {
	rng := rand.New(rand.NewSource(1304))
	const m = 32
	a, b = make([]bigint.Int, m*m), make([]bigint.Int, m*m)
	for i := range a {
		a[i] = bigint.Random(rng, 256)
		b[i] = bigint.Random(rng, 256)
		if rng.Intn(2) == 0 {
			a[i] = a[i].Neg()
		}
		if rng.Intn(2) == 0 {
			b[i] = b[i].Neg()
		}
	}
	return a, b
}

// strassenTiles draws the 32×32 operands of a Strassen rank, formed by
// ComboEval: entrywise sums and differences of two tiles of signed 256-bit
// entries. An entry is five limbs wide where its two terms add, about
// half of them.
func strassenTiles() (a, b []bigint.Int) {
	a1, b1 := workloadTiles()
	rng := rand.New(rand.NewSource(1306))
	a2, b2 := make([]bigint.Int, len(a1)), make([]bigint.Int, len(b1))
	for i := range a2 {
		a2[i], b2[i] = bigint.Random(rng, 256), bigint.Random(rng, 256)
		if rng.Intn(2) == 0 {
			a2[i] = a2[i].Neg()
		}
		if rng.Intn(2) == 0 {
			b2[i] = b2[i].Neg()
		}
	}
	a, _ = ftmatmul.ComboEval(len(a1), [][]bigint.Int{a1, a2}, []int{1, 1})
	b, _ = ftmatmul.ComboEval(len(b1), [][]bigint.Int{b1, b2}, []int{1, -1})
	return a, b
}

// mixedTiles is a workload tile pair with one six-limb entry in each row
// of a: the shape that leaves Dot, so every entry of the tile runs on the
// Acc ladder.
func mixedTiles() (a, b []bigint.Int) {
	a, b = workloadTiles()
	rng := rand.New(rand.NewSource(1307))
	const m = 32
	for i := 0; i < m; i++ {
		a[i*m+rng.Intn(m)] = bigint.Random(rng, 384).Neg()
	}
	return a, b
}

// TestTileMulAllocs pins the tile kernel's allocation discipline: in
// steady state a tile costs its output slice and its limb slab, at
// GOMAXPROCS 1 and 2, on the workload's tile (Dot, on the stack) and on a
// mixed-width tile (a pooled Acc on the ladder). Only the pooled path
// skips under the race detector, which makes sync.Pool drop pooled values
// at random.
func TestTileMulAllocs(t *testing.T) {
	wa, wb := workloadTiles()
	ma, mb := mixedTiles()
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, tc := range []struct {
				name   string
				a, b   []bigint.Int
				pooled bool
			}{{"dot", wa, wb, false}, {"ladder", ma, mb, true}} {
				t.Run(tc.name, func(t *testing.T) {
					if tc.pooled && raceEnabled {
						t.Skip("the race detector makes sync.Pool drop pooled accumulators at random")
					}
					// Steady state is the best of several batches: the
					// first batch sizes a pooled accumulator, and a later
					// one may rebuild it once after a GC or a move to
					// another P.
					best := math.Inf(1)
					for batch := 0; batch < 5; batch++ {
						const runs = 4
						var m0, m1 runtime.MemStats
						runtime.ReadMemStats(&m0)
						for i := 0; i < runs; i++ {
							ftmatmul.TileMul(32, tc.a, tc.b)
						}
						runtime.ReadMemStats(&m1)
						best = min(best, float64(m1.Mallocs-m0.Mallocs)/runs)
					}
					if best > 2 {
						t.Errorf("tileMul allocates %.2f times per 32x32 tile in steady state, want <= 2", best)
					}
				})
			}
		})
	}
}

// BenchmarkTileMul and BenchmarkTileMulRef time one 32×32 tile through the
// accumulator kernel and through the Int-based reference: the per-layer
// before and after of the matmul workload's hottest function, from one
// binary. The tile kernel runs three shapes: a standard rank's tile of
// signed 256-bit entries (4×4 products), a Strassen rank's 257-bit operand
// sums (4×4, 4×5 and 5×5 products), and a mixed-width tile with one
// six-limb entry per row, which runs on the Acc ladder.
func BenchmarkTileMul(b *testing.B) {
	for _, bc := range []struct {
		name  string
		tiles func() (a, b []bigint.Int)
	}{{"workload", workloadTiles}, {"strassen", strassenTiles}, {"mixed", mixedTiles}} {
		b.Run(bc.name, func(b *testing.B) {
			x, y := bc.tiles()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tileSink, _ = ftmatmul.TileMul(32, x, y)
			}
		})
	}
}

func BenchmarkTileMulRef(b *testing.B) {
	x, y := workloadTiles()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tileSink, _ = ftmatmul.RefTileMul(32, x, y)
	}
}

// tileSink keeps the benchmarked products live.
var tileSink []bigint.Int

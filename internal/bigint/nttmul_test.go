package bigint

import (
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/workpool"
)

// mulViaBig computes the reference product of two nats through math/big.
func mulViaBig(x, y nat) *big.Int {
	return new(big.Int).Mul(natToBig(x), natToBig(y))
}

// nttMulDirect runs the NTT tier in isolation (no ladder dispatch): a fresh
// zeroed destination and an arena sized by nttScratchFor.
func nttMulDirect(x, y nat) nat {
	z := make(nat, len(x)+len(y))
	ar := getArena()
	ar.ensure(nttScratchFor(len(x) + len(y)))
	nttMulTo(z, x, y, ar)
	putArena(ar)
	return z.norm()
}

// TestNTTMulVsMathBig cross-checks the NTT kernel directly (bypassing the
// ladder, so the tier is exercised regardless of thresholds) across balanced,
// near-power-of-two, and unbalanced shapes.
func TestNTTMulVsMathBig(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	shapes := [][2]int{
		{1, 1}, {2, 2}, {3, 2}, {40, 40},
		// Near-power-of-two product sizes: the transform length N jumps at
		// these boundaries, so off-by-one errors in nttSize or the top
		// coefficient's carry handling show up here.
		{511, 511}, {512, 512}, {513, 511}, {513, 513},
		{1023, 1025}, {1024, 1024}, {1025, 1025},
		// Unbalanced within one transform (len(x) < 2·len(y))...
		{900, 700}, {1500, 800},
		// ...and heavily unbalanced (the ladder would chunk these; here the
		// direct call checks the transform handles them exactly anyway).
		{2048, 512}, {3000, 600},
	}
	for _, sh := range shapes {
		x := randNat(rng, sh[0])
		y := randNat(rng, sh[1])
		got := natToBig(nttMulDirect(x, y))
		if want := mulViaBig(x, y); got.Cmp(want) != 0 {
			t.Errorf("nttMulTo mismatch at %d×%d limbs", sh[0], sh[1])
		}
	}

	// Carry-stress patterns: all-ones operands maximize every convolution
	// coefficient, driving the CRT recombination and carry ripple to their
	// bounds; a single high limb checks the zero-padding.
	for _, n := range []int{512, 1024, 1031} {
		ones := make(nat, n)
		for i := range ones {
			ones[i] = ^uint64(0)
		}
		single := make(nat, n)
		single[n-1] = 1
		for _, tc := range [][2]nat{{ones, ones}, {ones, single}, {single, single}} {
			got := natToBig(nttMulDirect(tc[0], tc[1]))
			if want := mulViaBig(tc[0], tc[1]); got.Cmp(want) != 0 {
				t.Errorf("nttMulTo carry-stress mismatch at %d limbs", n)
			}
		}
	}
}

// TestNTTEligibleStair pins the padding-aware dispatch decisions under the
// compiled-in ladder: the NTT engages at full transforms (balanced sizes at
// or just below a power of two), yields to Karatsuba just past a boundary
// where zero-padding doubles the transform, and re-engages once operands
// refill it. Clear-cut cases only — borderline shapes (model ties) are
// deliberately not pinned so a retuned crossover can move them.
func TestNTTEligibleStair(t *testing.T) {
	cases := []struct {
		x, y int
		want bool
	}{
		{1024, 1024, false}, // below the tie point
		{1400, 1400, false},
		{2048, 2048, true},  // full 4096-point transform
		{2100, 2100, false}, // just past the boundary: N doubles
		{3000, 3000, true},
		{4096, 4096, true},
		{4200, 4200, false},
		{6000, 6000, true},
		{16384, 16384, true}, // the 2^20-bit acceptance size
		{3000, 1400, false},  // shorter operand below the rung floor
	}
	for _, c := range cases {
		if got := nttEligible(c.x, c.y); got != c.want {
			t.Errorf("nttEligible(%d, %d) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
	withLadder(t, Ladder{KaratsubaLimbs: 40}, func() {
		if nttEligible(1<<20, 1<<20) {
			t.Error("nttEligible true with the NTT rung disabled")
		}
	})
}

// TestNTTMulSquaring pins the one-transform squaring fast path (Int values
// are immutable, so Mul(x, x) passes the same backing array twice).
func TestNTTMulSquaring(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{513, 1024} {
		x := randNat(rng, n)
		got := natToBig(nttMulDirect(x, x))
		if want := mulViaBig(x, x); got.Cmp(want) != 0 {
			t.Errorf("nttMulTo squaring mismatch at %d limbs", n)
		}
		xi := Int{abs: x}
		if got := xi.Mul(xi).ToBig(); got.Cmp(mulViaBig(x, x)) != 0 {
			t.Errorf("Int.Mul(x, x) mismatch at %d limbs", n)
		}
	}
}

// withLadder runs f under a temporary crossover profile.
func withLadder(t *testing.T, l Ladder, f func()) {
	t.Helper()
	prev := CurrentLadder()
	if err := SetLadder(l); err != nil {
		t.Fatalf("SetLadder: %v", err)
	}
	defer func() {
		if err := SetLadder(prev); err != nil {
			t.Fatalf("restoring ladder: %v", err)
		}
	}()
	f()
}

// TestMulToLadderBoundary walks natMul across the Karatsuba → NTT boundary
// with the NTT rung pulled down to a test-friendly size: balanced operands
// straddling the threshold, unbalanced pairs where only chunks are NTT-sized,
// and short-tail shapes that keep the chunked mulTo path exercised above the
// NTT threshold (the satellite regression this PR guards).
func TestMulToLadderBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	l := DefaultLadder()
	l.NTTLimbs = 128
	withLadder(t, l, func() {
		shapes := [][2]int{
			{127, 127}, {128, 128}, {129, 127}, {129, 129}, // straddle the rung
			{255, 128}, {256, 128}, {257, 128}, // NTT-unbalanced vs chunk boundary
			{1000, 128}, {1000, 130}, // chunked, NTT-sized blocks, short tails
			{1000, 127},            // chunked, blocks stay on Karatsuba
			{513, 200}, {512, 200}, // chunk tail just below/at threshold
			{4096, 100}, // long chunked Karatsuba, y below NTT rung
		}
		for _, sh := range shapes {
			x := randNat(rng, sh[0])
			y := randNat(rng, sh[1])
			got := natToBig(natMul(x, y))
			if want := mulViaBig(x, y); got.Cmp(want) != 0 {
				t.Errorf("natMul mismatch at %d×%d limbs (NTT rung at %d)", sh[0], sh[1], l.NTTLimbs)
			}
		}
	})
}

// TestNTTMulParallel swaps a multi-slot pool into nttPool so the per-prime
// fan-out (nttTask.work) and the intra-stage block splitting run even on a
// single-CPU host, and cross-checks the product. Run under -race this is the
// data-race gate for the parallel butterfly paths.
func TestNTTMulParallel(t *testing.T) {
	nttPoolMu.Lock()
	prev := nttPool
	nttPool = workpool.New(4)
	defer func() {
		nttPool = prev
		nttPoolMu.Unlock()
	}()

	rng := rand.New(rand.NewSource(13))
	// 8200×8200 limbs → N = 2^14 transforms whose first-stage half (2^13)
	// reaches nttParMinHalf, so splitBlock engages in both transforms.
	x := randNat(rng, 8200)
	y := randNat(rng, 8200)
	got := natToBig(nttMulDirect(x, y))
	if want := mulViaBig(x, y); got.Cmp(want) != 0 {
		t.Fatal("parallel nttMulTo mismatch at 8200×8200 limbs")
	}
}

// withNTTPool runs f with a pool of the given capacity swapped into
// nttPool.
func withNTTPool(capacity int, f func()) {
	nttPoolMu.Lock()
	prev := nttPool
	nttPool = workpool.New(capacity)
	defer func() {
		nttPool = prev
		nttPoolMu.Unlock()
	}()
	f()
}

// TestNTTMulTransformSizes cross-checks the NTT kernel against math/big at
// every transform size from 2 to 2^17 points, products and squares, on
// pools of one to four slots: one slot runs the three primes in turn, more
// fork them, and from 2^14 points on the long blocks split across the
// pool. The all-ones square maximizes every coefficient and carry.
func TestNTTMulTransformSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	type shape struct {
		x, y, ones     nat
		prod, sqr, max *big.Int
		points         int
	}
	var shapes []shape
	for lg := 1; lg <= 17; lg++ {
		x, y, ones := randNat(rng, 1<<lg/2), randNat(rng, 1<<lg/2), make(nat, 1<<lg/2)
		for i := range ones {
			ones[i] = ^uint64(0)
		}
		if n := nttSize(len(x) + len(y)); n != 1<<lg {
			t.Fatalf("%d×%d limbs give a %d-point transform, want 2^%d", len(x), len(y), n, lg)
		}
		shapes = append(shapes, shape{x, y, ones, mulViaBig(x, y), mulViaBig(x, x), mulViaBig(ones, ones), 1 << lg})
	}
	for capacity := 1; capacity <= 4; capacity++ {
		withNTTPool(capacity, func() {
			for _, sh := range shapes {
				if got := natToBig(nttMulDirect(sh.x, sh.y)); got.Cmp(sh.prod) != 0 {
					t.Errorf("pool %d, %d points: product mismatch", capacity, sh.points)
				}
				if got := natToBig(nttMulDirect(sh.x, sh.x)); got.Cmp(sh.sqr) != 0 {
					t.Errorf("pool %d, %d points: square mismatch", capacity, sh.points)
				}
				if got := natToBig(nttMulDirect(sh.ones, sh.ones)); got.Cmp(sh.max) != 0 {
					t.Errorf("pool %d, %d points: all-ones square mismatch", capacity, sh.points)
				}
			}
		})
	}
}

// TestNTTTwiddleFirstUse empties every prime's twiddle table and then has
// goroutines multiply at growing transform sizes at once, so the first
// products race to grow the tables while others read them; every product
// must match math/big. Under -race this is the data-race gate for the
// lock-free table reads.
func TestNTTTwiddleFirstUse(t *testing.T) {
	var saved [len(nttPrimes)]*nttTwiddles
	for i := range nttPrimes {
		saved[i] = nttPrimes[i].tw.Load()
	}
	defer func() {
		// Leave the package as the test found it: the tables it emptied
		// back.
		for i := range nttPrimes {
			nttPrimes[i].tw.Store(saved[i])
		}
	}()
	withNTTPool(2, func() {
		for i := range nttPrimes {
			nttPrimes[i].tw.Store(nil)
		}
		const workers = 6
		rng := rand.New(rand.NewSource(37))
		var xs, ys [workers][]nat
		for g := range xs {
			for lg := 2; lg <= 13; lg++ {
				n := 1 << lg / 2
				xs[g] = append(xs[g], randNat(rng, n))
				ys[g] = append(ys[g], randNat(rng, n-g%2))
			}
		}
		var got [workers][]nat
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range xs[g] {
					got[g] = append(got[g], nttMulDirect(xs[g][k], ys[g][k]))
				}
			}()
		}
		wg.Wait()
		for g := range got {
			for k := range got[g] {
				if natToBig(got[g][k]).Cmp(mulViaBig(xs[g][k], ys[g][k])) != 0 {
					t.Errorf("worker %d: product %d (%d×%d limbs) mismatch", g, k, len(xs[g][k]), len(ys[g][k]))
				}
			}
		}
	})
	for i := range nttPrimes {
		if tw := nttPrimes[i].tw.Load(); tw == nil || len(tw.w) < 1<<12 {
			t.Errorf("prime %d: table not grown to the 2^13-point transforms", i)
		}
	}
}

// TestNTTMulParallelAllocs pins the butterfly fan-out's allocation
// contract at the TestNTTMulParallel shape (8200-limb operands, 2^13-point
// halves, a pool of 4): splitting long blocks across the pool forks pooled
// chunk records, so the kernel stays allocation-free in steady state.
func TestNTTMulParallelAllocs(t *testing.T) {
	nttPoolMu.Lock()
	prev := nttPool
	nttPool = workpool.New(4)
	defer func() {
		nttPool = prev
		nttPoolMu.Unlock()
	}()

	rng := rand.New(rand.NewSource(14))
	x := randNat(rng, 8200)
	y := randNat(rng, 8200)
	z := make(nat, len(x)+len(y))
	ar := getArena()
	defer putArena(ar)
	ar.ensure(nttScratchFor(len(x) + len(y)))
	nttMulTo(z, x, y, ar) // warm: records, buffers and workers are made here
	if got := natToBig(z); got.Cmp(mulViaBig(x, y)) != 0 {
		t.Fatal("parallel nttMulTo mismatch at 8200×8200 limbs")
	}
	if got := testing.AllocsPerRun(5, func() {
		clear(z)
		nttMulTo(z, x, y, ar)
	}); got != 0 {
		t.Errorf("parallel nttMulTo steady state allocates %.1f times per op, want 0", got)
	}
}

// TestNTTFanoutReuse pins the order in which idle fan-out records are
// taken: with eight records idle, most of them with no buffers yet, a
// sequential caller must keep taking back the record its last product
// returned, whose buffers fit, so one warm product brings the fan-out to
// steady state whatever ran before it.
func TestNTTFanoutReuse(t *testing.T) {
	var taken [8]*nttFanout
	for i := range taken {
		taken[i] = getNTTFanout()
	}
	for _, f := range taken {
		putNTTFanout(f)
	}
	withNTTPool(4, func() {
		rng := rand.New(rand.NewSource(15))
		x, y := randNat(rng, 8200), randNat(rng, 8200)
		z := make(nat, len(x)+len(y))
		ar := getArena()
		defer putArena(ar)
		ar.ensure(nttScratchFor(len(x) + len(y)))
		nttMulTo(z, x, y, ar)
		if got := testing.AllocsPerRun(5, func() {
			clear(z)
			nttMulTo(z, x, y, ar)
		}); got != 0 {
			t.Errorf("nttMulTo after one warm product allocates %.1f times per op, want 0", got)
		}
	})
}

// TestNTTMulSharedPoolContention is the -race gate for several goroutines
// forking on the shared pool at once: eight NTT-rung multiplications run
// through natMul together, each product must match math/big, and the
// shared pool's peak of live workers must stay within its capacity.
func TestNTTMulSharedPoolContention(t *testing.T) {
	nttPoolMu.Lock() // nttPool stays nil, so every fork goes to the shared pool
	defer nttPoolMu.Unlock()

	const workers, limbs = 8, 2048
	if !nttEligible(limbs, limbs) {
		t.Fatalf("%d×%d limbs is not on the NTT rung", limbs, limbs)
	}
	rng := rand.New(rand.NewSource(29))
	var xs, ys, got [workers]nat
	for i := range xs {
		xs[i], ys[i] = randNat(rng, limbs), randNat(rng, limbs)
	}
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = natMul(xs[i], ys[i])
		}()
	}
	wg.Wait()
	for i := range got {
		if natToBig(got[i]).Cmp(mulViaBig(xs[i], ys[i])) != 0 {
			t.Errorf("product %d mismatch at %d×%d limbs", i, limbs, limbs)
		}
	}
	pool := workpool.Shared()
	if peak, _, _ := pool.Stats(); peak > int64(pool.Capacity()) {
		t.Fatalf("shared pool peak %d exceeds its capacity %d", peak, pool.Capacity())
	}
}

// TestNTTMulGoldenSizes cross-checks the full dispatch ladder against
// math/big at the paper-scale golden sizes 2^18–2^22 bits — the range the
// PR's performance acceptance is measured over, so correctness is pinned at
// exactly those shapes (balanced, and one limb off to catch padding edges).
// The two largest sizes are skipped under -short.
func TestNTTMulGoldenSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for _, logBits := range []int{18, 19, 20, 21, 22} {
		if testing.Short() && logBits > 20 {
			continue
		}
		limbs := (1 << logBits) / 64
		for _, d := range []int{0, 1} {
			x := randNat(rng, limbs)
			y := randNat(rng, limbs+d)
			got := natToBig(natMul(x, y))
			if want := mulViaBig(x, y); got.Cmp(want) != 0 {
				t.Errorf("natMul mismatch at 2^%d bits (+%d limbs)", logBits, d)
			}
		}
	}
}

// TestNTTMulAllocs pins the allocation contract of the NTT tier: the kernel
// itself (preallocated destination, pre-sized arena) is allocation-free in
// steady state, and the full natMul does exactly one heap allocation — the
// result — like the Karatsuba tier before it. The natMul half is checked
// only without the race detector.
func TestNTTMulAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randNat(rng, 1024)
	y := randNat(rng, 1024)

	z := make(nat, len(x)+len(y))
	ar := getArena()
	ar.ensure(nttScratchFor(len(x) + len(y)))
	nttMulTo(z, x, y, ar) // warm: any lazy growth happens here
	if got := testing.AllocsPerRun(5, func() {
		clear(z)
		nttMulTo(z, x, y, ar)
	}); got != 0 {
		t.Errorf("nttMulTo steady state allocates %.1f times per op, want 0", got)
	}
	putArena(ar)

	// natMul rents its arena from a sync.Pool, which the race detector
	// empties at random; nttMulTo above holds its arena and stays checked.
	if raceEnabled {
		return
	}
	natMul(x, y) // warm the arena pool past the NTT scratch size
	if got := testing.AllocsPerRun(5, func() { natMul(x, y) }); got > 1 {
		t.Errorf("natMul through NTT tier allocates %.1f times per op, want ≤ 1 (the result)", got)
	}
}

// TestSetLadderRejectsInvalid: the live ladder starts at the compiled-in
// profile (no init moves it), and SetLadder rejects an invalid profile
// without touching the live one.
func TestSetLadderRejectsInvalid(t *testing.T) {
	prev := CurrentLadder()
	defer SetLadder(prev)
	if want := DefaultLadder(); prev != want {
		t.Fatalf("live ladder %+v, want the compiled-in %+v", prev, want)
	}

	if err := SetLadder(Ladder{KaratsubaLimbs: 1}); err == nil {
		t.Error("SetLadder accepted karatsuba_limbs = 1")
	}
	if err := SetLadder(Ladder{KaratsubaLimbs: 50, NTTLimbs: 49}); err == nil {
		t.Error("SetLadder accepted ntt_limbs below karatsuba_limbs")
	}
	if got := CurrentLadder(); got != prev {
		t.Fatalf("rejected profile mutated the live ladder: %+v", got)
	}
}

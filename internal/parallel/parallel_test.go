package parallel

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/bigint"
	"repro/internal/machine"
	"repro/internal/toom"
)

func randOperand(rng *rand.Rand, bits int) bigint.Int {
	return bigint.Random(rng, bits)
}

func TestMultiplyMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	cases := []struct {
		k, p, dfs int
	}{
		{2, 3, 0},
		{2, 9, 0},
		{2, 27, 0},
		{3, 5, 0},
		{3, 25, 0},
		{2, 9, 1},
		{2, 9, 2},
		{3, 5, 1},
	}
	for _, c := range cases {
		c := c
		// The leaf digit count is always R = P; the "leaf=1" suffix keeps
		// the subtest IDs stable across versions.
		t.Run(fmt.Sprintf("k=%d P=%d dfs=%d leaf=1", c.k, c.p, c.dfs), func(t *testing.T) {
			alg := toom.MustNew(c.k)
			bits := 1 << 15
			a := randOperand(rng, bits)
			b := randOperand(rng, bits)
			res, err := Multiply(a, b, Options{Alg: alg, P: c.p, DFSSteps: c.dfs})
			if err != nil {
				t.Fatal(err)
			}
			want := new(big.Int).Mul(a.ToBig(), b.ToBig())
			if res.Product.ToBig().Cmp(want) != 0 {
				t.Fatalf("parallel product mismatch")
			}
			if res.Report.L == 0 && c.p > 1 {
				t.Error("no messages counted on a multi-processor run")
			}
		})
	}
}

func TestMultiplySigns(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	alg := toom.MustNew(2)
	a := randOperand(rng, 4096)
	b := randOperand(rng, 4096).Neg()
	res, err := Multiply(a, b, Options{Alg: alg, P: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Mul(a.ToBig(), b.ToBig())
	if res.Product.ToBig().Cmp(want) != 0 {
		t.Fatal("sign handling broken")
	}
}

func TestMultiplyZero(t *testing.T) {
	alg := toom.MustNew(2)
	res, err := Multiply(bigint.Zero(), bigint.FromInt64(7), Options{Alg: alg, P: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Product.IsZero() {
		t.Fatalf("0 · 7 = %v", res.Product)
	}
}

func TestOptionValidation(t *testing.T) {
	alg := toom.MustNew(2)
	if _, err := Multiply(bigint.One(), bigint.One(), Options{Alg: alg, P: 4}); err == nil {
		t.Error("P not a power of 2k-1 should fail")
	}
	if _, err := Multiply(bigint.One(), bigint.One(), Options{P: 3}); err == nil {
		t.Error("missing Alg should fail")
	}
	if _, err := Multiply(bigint.One(), bigint.One(), Options{Alg: alg, P: 3, DFSSteps: -1}); err == nil {
		t.Error("negative DFSSteps should fail")
	}
}

func TestBandwidthScalesWithProcessors(t *testing.T) {
	// Unlimited memory: per-processor BW = Θ(n/P^{log_{2k-1}k}) — more
	// processors means *less* bandwidth per processor, by roughly
	// (2k-1)^{log_{2k-1}k} = k per grid level.
	rng := rand.New(rand.NewSource(63))
	alg := toom.MustNew(2)
	bits := 1 << 16
	a, b := randOperand(rng, bits), randOperand(rng, bits)
	bw := map[int]int64{}
	for _, p := range []int{3, 9, 27, 81} {
		res, err := Multiply(a, b, Options{Alg: alg, P: p})
		if err != nil {
			t.Fatal(err)
		}
		bw[p] = res.Report.BW
	}
	// k=2: BW(P) ~ n/P^{log_3 2}, so tripling P should asymptotically halve
	// per-processor bandwidth. Small P carries a geometric-sum transient
	// (a 1-level run has no tail), so we require monotone decrease
	// everywhere and near-2x in the converged tail.
	if !(bw[3] > bw[9] && bw[9] > bw[27] && bw[27] > bw[81]) {
		t.Fatalf("per-processor BW not decreasing with P: %v", bw)
	}
	if r := float64(bw[27]) / float64(bw[81]); r < 1.4 || r > 3.5 {
		t.Errorf("tail BW ratio 27→81 procs = %.2f, want ≈ 2", r)
	}
}

func TestArithmeticBalance(t *testing.T) {
	// F should split roughly evenly: max/avg below 2.
	rng := rand.New(rand.NewSource(64))
	alg := toom.MustNew(3)
	a, b := randOperand(rng, 1<<15), randOperand(rng, 1<<15)
	res, err := Multiply(a, b, Options{Alg: alg, P: 25})
	if err != nil {
		t.Fatal(err)
	}
	avg := float64(res.Report.TotalF) / 25
	if ratio := float64(res.Report.F) / avg; ratio > 2.0 {
		t.Errorf("arithmetic imbalance: max/avg = %.2f", ratio)
	}
}

func TestDFSIncreasesBandwidth(t *testing.T) {
	// Each DFS step multiplies the communication volume (the group re-walks
	// the tree 2k-1 times on problems 1/k the size): BW grows by roughly
	// (2k-1)/k per DFS step.
	rng := rand.New(rand.NewSource(65))
	alg := toom.MustNew(2)
	a, b := randOperand(rng, 1<<16), randOperand(rng, 1<<16)
	res0, err := Multiply(a, b, Options{Alg: alg, P: 9, DFSSteps: 0})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Multiply(a, b, Options{Alg: alg, P: 9, DFSSteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Report.BW <= res0.Report.BW {
		t.Errorf("DFS steps should cost bandwidth: dfs0=%d dfs2=%d", res0.Report.BW, res2.Report.BW)
	}
	if res2.Report.L <= res0.Report.L {
		t.Errorf("DFS steps should cost latency: dfs0=%d dfs2=%d", res0.Report.L, res2.Report.L)
	}
}

func TestDFSReducesPeakMemory(t *testing.T) {
	// Lemma 3.1's point: DFS steps shrink the per-processor footprint.
	rng := rand.New(rand.NewSource(66))
	alg := toom.MustNew(2)
	a, b := randOperand(rng, 1<<16), randOperand(rng, 1<<16)
	peak := func(dfs int) int64 {
		res, err := Multiply(a, b, Options{Alg: alg, P: 9, DFSSteps: dfs, TrackMemory: true})
		if err != nil {
			t.Fatal(err)
		}
		var mx int64
		for _, s := range res.Report.PerProc {
			if s.PeakWords > mx {
				mx = s.PeakWords
			}
		}
		return mx
	}
	p0, p2 := peak(0), peak(2)
	if p2 >= p0 {
		t.Errorf("peak memory with 2 DFS steps (%d) not below 0 DFS steps (%d)", p2, p0)
	}
}

func TestDFSStepsFor(t *testing.T) {
	// Unlimited memory: no DFS steps.
	if got := DFSStepsFor(1<<20, 2, 9, 0); got != 0 {
		t.Errorf("unlimited memory: l_dfs = %d", got)
	}
	// Tight memory forces DFS steps, monotonically in the budget.
	l1 := DFSStepsFor(1<<20, 2, 9, 1<<18)
	l2 := DFSStepsFor(1<<20, 2, 9, 1<<14)
	if l2 < l1 {
		t.Errorf("tighter memory needs at least as many DFS steps: %d vs %d", l1, l2)
	}
	if l2 == 0 {
		t.Error("very tight memory should force DFS steps")
	}
}

func TestSplitSigned(t *testing.T) {
	rng := rand.New(rand.NewSource(69))
	for trial := 0; trial < 100; trial++ {
		shift := 1 + rng.Intn(40)
		n := 2 + rng.Intn(6)
		z := bigint.Random(rng, 1+rng.Intn(n*shift+100)) // may exceed n·shift bits
		if rng.Intn(2) == 0 {
			z = z.Neg()
		}
		var acc bigint.Acc
		acc.SetInt(z)
		parts := splitSigned(&acc, n, shift)
		if len(parts) != n {
			t.Fatalf("got %d parts", len(parts))
		}
		back := toom.Recompose(parts, shift)
		if !back.Equal(z) {
			t.Fatalf("splitSigned round trip failed: z=%v shift=%d n=%d", z, shift, n)
		}
		// Non-top entries stay within the digit width.
		for _, d := range parts[:n-1] {
			if d.BitLen() > shift {
				t.Fatalf("digit exceeds base width")
			}
		}
	}
}

func TestCyclicShares(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	v := bigint.Random(rng, 300)
	shares := cyclicShares(v, 12, 25, 3)
	// Reassemble: digit s = shares[s%3][s/3].
	full := make([]bigint.Int, 12)
	for s := 0; s < 12; s++ {
		full[s] = shares[s%3][s/3]
	}
	if got := toom.Recompose(full, 25); !got.Equal(v) {
		t.Fatal("cyclic shares do not reassemble")
	}
}

func TestMemoryCapacityEnforced(t *testing.T) {
	// With TrackMemory and a tiny M, the run must fail with an
	// out-of-memory error rather than silently overrunning.
	rng := rand.New(rand.NewSource(67))
	alg := toom.MustNew(2)
	a, b := randOperand(rng, 1<<15), randOperand(rng, 1<<15)
	_, err := Multiply(a, b, Options{
		Alg: alg, P: 9, TrackMemory: true,
		Machine: machine.Config{MemoryWords: 16},
	})
	if err == nil {
		t.Fatal("expected out-of-memory failure")
	}
}

func TestLatencyGrowsLogarithmically(t *testing.T) {
	// L = Θ(log P) in the unlimited-memory case: going from P=3 to P=27
	// (3 levels) should roughly triple L, not grow by 9x.
	rng := rand.New(rand.NewSource(68))
	alg := toom.MustNew(2)
	a, b := randOperand(rng, 1<<16), randOperand(rng, 1<<16)
	res3, err := Multiply(a, b, Options{Alg: alg, P: 3})
	if err != nil {
		t.Fatal(err)
	}
	res27, err := Multiply(a, b, Options{Alg: alg, P: 27})
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(res27.Report.L) / float64(res3.Report.L); ratio > 5 {
		t.Errorf("L ratio 27/3 procs = %.1f, want ≈ 3 (log growth)", ratio)
	}
}

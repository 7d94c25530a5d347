package ftparallel

import (
	"math/rand"
	"testing"

	"repro/internal/bigint"
	"repro/internal/toom"
)

// TestMultiplyAllocs pins the host path's allocation budget at the
// ft_toom_clean shape (2^16-bit operands, Toom-2, P = 9, f = 1, sim, no
// faults): fewer than 2,000 allocations per multiply. Per-entry Int loops in
// the evaluation, fold, reduce and leaf read-out, or a timer per waiting
// receive, put it near 2,700.
func TestMultiplyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled accumulators at random")
	}
	rng := rand.New(rand.NewSource(1803))
	a, b := bigint.Random(rng, 1<<16), bigint.Random(rng, 1<<16)
	opts := Options{Alg: toom.MustNew(2), P: 9, F: 1}
	res, err := Multiply(a, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Product.Equal(a.Mul(b)) {
		t.Fatal("wrong product")
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Multiply(a, b, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 2000 {
		t.Errorf("Multiply allocates %.0f times per op, want < 2000", allocs)
	}
	t.Logf("%.0f allocations per multiply", allocs)
}

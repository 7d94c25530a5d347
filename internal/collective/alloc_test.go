package collective

import (
	"math/rand"
	"testing"

	"repro/internal/bigint"
	"repro/internal/machine"
)

// TestCombinerAllocs pins the allocation shape of the reduce combiner and
// the weighted scaling: one call of sum or WeightedReduce (a one-member
// group, so no messages) makes the same number of allocations at 8 and at
// 64 entries — the output vector and one limb slab — and sums agree with
// the Int API, including zero addends, which share the other's limbs.
func TestCombinerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled accumulators at random")
	}
	rng := rand.New(rand.NewSource(1802))
	vec := func(n int) machine.Ints {
		v := make(machine.Ints, n)
		for i := range v {
			if i%5 != 4 {
				v[i] = bigint.Random(rng, 1000)
			}
			if i%3 == 0 {
				v[i] = v[i].Neg()
			}
		}
		return v
	}
	run(t, 1, func(p *machine.Proc) error {
		var counts [3][]float64
		for _, n := range []int{8, 64} {
			a, b := vec(n), vec(n)
			got, err := sum(a, b)
			if err != nil {
				return err
			}
			for i := range a {
				if !got[i].Equal(a[i].Add(b[i])) {
					t.Fatalf("sum entry %d differs from Int.Add", i)
				}
			}
			counts[0] = append(counts[0], testing.AllocsPerRun(20, func() { _, _ = sum(a, b) }))
			for i, w := range []int64{-7, 1} {
				counts[1+i] = append(counts[1+i], testing.AllocsPerRun(20, func() {
					_, _ = WeightedReduce(p, Group{0}, 0, "w", a, w)
				}))
			}
		}
		for i, name := range []string{"sum", "WeightedReduce(-7)", "WeightedReduce(1)"} {
			if c := counts[i]; c[0] != c[1] || c[0] > 2 {
				t.Errorf("%s: %v allocations at 8 and 64 entries, want the same, at most 2", name, c)
			}
		}
		return nil
	})
}

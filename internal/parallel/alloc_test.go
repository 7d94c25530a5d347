package parallel

import (
	"math/rand"
	"testing"

	"repro/internal/bigint"
	"repro/internal/machine"
	"repro/internal/toom"
)

// TestVectorLoopAllocs pins the allocation shape of the per-vector loops:
// one call of EvalRowBlocks (a combined and a unit row), Fold (at scale 1
// and at an FT-style scale), AddColumn and the leaf read-out makes the same
// number of allocations at 8 and at 64 entries — the output vector and one
// limb slab, never one allocation per entry.
func TestVectorLoopAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled accumulators at random")
	}
	alg := toom.MustNew(2)
	pl := &Plan{alg: alg, k: 2}
	wNum, _ := alg.WScaled()
	rng := rand.New(rand.NewSource(1801))
	vec := func(n int) []bigint.Int {
		v := make([]bigint.Int, n)
		for i := range v {
			v[i] = bigint.Random(rng, 900)
			if i%3 == 0 {
				v[i] = v[i].Neg()
			}
		}
		return v
	}
	ops := func(n int) map[string]func(*machine.Proc) {
		share, child, out := vec(n), vec(n/2), vec(n)
		slices := [][]bigint.Int{vec(n / 2), vec(n / 2), vec(n / 2)}
		var z bigint.Acc
		z.SetInt(bigint.Random(rng, 900*n))
		return map[string]func(*machine.Proc){
			"EvalRowBlocks/combined": func(p *machine.Proc) { EvalRowBlocks(p, []int64{1, -2}, share, 2) },
			"EvalRowBlocks/unit":     func(p *machine.Proc) { EvalRowBlocks(p, []int64{0, 1}, share, 2) },
			"Fold/scale1":            func(p *machine.Proc) { pl.Fold(p, wNum, 1, slices, n/2, 1) },
			"Fold/scale6":            func(p *machine.Proc) { pl.Fold(p, wNum, 6, slices, n/2, 1) },
			"AddColumn":              func(p *machine.Proc) { pl.AddColumn(p, 0, child, append([]bigint.Int(nil), out...), n/2, 1) },
			"splitSigned":            func(p *machine.Proc) { splitSigned(&z, n, 900) },
		}
	}
	m, err := machine.New(machine.Config{P: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(func(p *machine.Proc) error {
		counts := map[string][]float64{}
		for _, n := range []int{8, 64} {
			for name, op := range ops(n) {
				counts[name] = append(counts[name], testing.AllocsPerRun(20, func() { op(p) }))
			}
		}
		for name, c := range counts {
			t.Logf("%s: %v", name, c)
			if c[0] != c[1] || c[0] > 3 {
				t.Errorf("%s: %v allocations at 8 and 64 entries, want the same, at most 3", name, c)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// Package crosscheck runs the repository-wide agreement test: every
// multiplication path — sequential, scheduled, lazy, unbalanced, parallel,
// fault-tolerant (with live faults), replicated, checkpointed, multi-step,
// soft-fault-corrected — must produce the identical product for identical
// operands, with math/big as the independent referee.
package crosscheck

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/bigint"
	"repro/internal/ftparallel"
	"repro/internal/machine"
	"repro/internal/multistep"
	"repro/internal/parallel"
	"repro/internal/softfault"
	"repro/internal/toom"
	"repro/internal/toomgraph"
)

func TestAllAlgorithmsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 3; trial++ {
		bits := []int{1 << 12, 1 << 14, 1 << 15}[trial]
		a := bigint.Random(rng, bits)
		b := bigint.Random(rng, bits)
		if trial == 1 {
			a = a.Neg()
		}
		want := new(big.Int).Mul(a.ToBig(), b.ToBig())

		check := func(name string, got bigint.Int, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s (bits=%d): %v", name, bits, err)
			}
			if got.ToBig().Cmp(want) != 0 {
				t.Fatalf("%s (bits=%d): product mismatch", name, bits)
			}
		}

		check("schoolbook", a.Mul(b), nil)
		for k := 2; k <= 5; k++ {
			check(fmt.Sprintf("toom-%d", k), toom.MustNew(k).Mul(a, b), nil)
		}
		check("toom-3 scheduled", toom.MustNew(3).WithInterpolationSequence(toomgraph.Toom3()).Mul(a, b), nil)
		lazy, err := toom.MustNew(2).MulLazy(a, b, 3)
		check("lazy l=3", lazy, err)

		par, err := parallel.Multiply(a, b, parallel.Options{Alg: toom.MustNew(2), P: 9})
		if err != nil {
			t.Fatal(err)
		}
		check("parallel P=9", par.Product, nil)

		ft, err := ftparallel.Multiply(a, b, ftparallel.Options{
			Alg: toom.MustNew(2), P: 9, F: 1,
			Faults: []machine.Fault{{Proc: 4, Phase: ftparallel.PhaseMul}},
		})
		if err != nil {
			t.Fatal(err)
		}
		check("fault-tolerant with live fault", ft.Product, nil)

		repl, err := ftparallel.MultiplyReplicated(a, b, ftparallel.ReplicationOptions{
			Alg: toom.MustNew(2), P: 9, F: 1,
			Faults: []machine.Fault{{Proc: 1, Phase: ftparallel.PhaseMul}},
		})
		if err != nil {
			t.Fatal(err)
		}
		check("replicated with fleet loss", repl.Product, nil)

		cr, err := ftparallel.MultiplyCheckpointRestart(a, b, ftparallel.CheckpointOptions{
			Alg: toom.MustNew(2), P: 9,
			Faults: []machine.Fault{{Proc: 7, Phase: ftparallel.PhaseMul}},
		})
		if err != nil {
			t.Fatal(err)
		}
		check("checkpoint-restart with restart", cr.Product, nil)

		ms, err := multistep.New(2, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		msProd, err := ms.MulWithErasures(a, b, []int{3})
		check("multi-step with erasure", msProd, err)

		sf, err := softfault.New(2, 2)
		if err != nil {
			t.Fatal(err)
		}
		sfProd, _, err := sf.MulWithSoftFaults(a, b, map[int]bigint.Int{2: bigint.FromInt64(987654321)})
		check("soft-fault corrected", sfProd, err)
	}
}

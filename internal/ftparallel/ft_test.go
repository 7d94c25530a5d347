package ftparallel

import (
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bigint"
	"repro/internal/machine"
	"repro/internal/parallel"
	"repro/internal/toom"
)

func randOperand(rng *rand.Rand, bits int) bigint.Int {
	return bigint.Random(rng, bits)
}

func checkProduct(t *testing.T, a, b bigint.Int, res *Result, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Mul(a.ToBig(), b.ToBig())
	if res.Product.ToBig().Cmp(want) != 0 {
		t.Fatal("fault-tolerant product mismatch")
	}
}

func TestLayout(t *testing.T) {
	lay, err := NewLayout(9, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if lay.GPrime != 3 || lay.Cols() != 3 || lay.NumColumns() != 5 {
		t.Fatalf("layout %+v", lay)
	}
	if lay.Total() != 9+2*3+2*3 {
		t.Errorf("Total = %d", lay.Total())
	}
	// Worker/grid mapping round trips.
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			rank := lay.Worker(r, c)
			gr, gc := lay.WorkerPos(rank)
			if gr != r || gc != c {
				t.Fatalf("WorkerPos(%d) = (%d,%d)", rank, gr, gc)
			}
			col, ok := lay.ColumnOf(rank)
			row, _ := lay.RowOf(rank)
			if !ok || col != c || row != r {
				t.Fatalf("ColumnOf/RowOf(%d) wrong", rank)
			}
		}
	}
	// Linear-code processors are outside grid columns.
	if _, ok := lay.ColumnOf(lay.LinearCode(0, 1)); ok {
		t.Error("linear-code proc should not be in a grid column")
	}
	// Poly-code processors are in extended columns.
	col, ok := lay.ColumnOf(lay.PolyCode(1, 2))
	if !ok || col != 3+1 {
		t.Errorf("poly code column = %d, %v", col, ok)
	}
}

func TestLayoutValidation(t *testing.T) {
	if _, err := NewLayout(8, 2, 1); err == nil {
		t.Error("P not multiple of 2k-1 should fail")
	}
	if _, err := NewLayout(9, 1, 1); err == nil {
		t.Error("k=1 should fail")
	}
	if _, err := NewLayout(9, 2, -1); err == nil {
		t.Error("negative f should fail")
	}
}

func TestRenderFigures(t *testing.T) {
	lay, _ := NewLayout(9, 2, 1)
	fig1 := lay.RenderLinear()
	if !strings.Contains(fig1, "code row") || !strings.Contains(fig1, "within rows") {
		t.Errorf("figure 1 rendering incomplete:\n%s", fig1)
	}
	fig2 := lay.RenderPoly()
	if !strings.Contains(fig2, "code column") {
		t.Errorf("figure 2 rendering incomplete:\n%s", fig2)
	}
	fig3, err := RenderMultiStep(9, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fig3, "merged BFS steps") {
		t.Errorf("figure 3 rendering incomplete:\n%s", fig3)
	}
	if _, err := RenderMultiStep(9, 2, 3, 1); err == nil {
		t.Error("P=9 cannot merge 3 steps of 3")
	}
}

func TestNoFaultMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for _, c := range []struct{ k, p, f, dfs int }{
		{2, 3, 0, 0}, {2, 9, 1, 0}, {2, 9, 2, 0}, {3, 5, 1, 0},
		{2, 9, 1, 1}, {3, 5, 2, 1}, {2, 27, 1, 0},
	} {
		c := c
		t.Run(fmt.Sprintf("k=%d P=%d f=%d dfs=%d", c.k, c.p, c.f, c.dfs), func(t *testing.T) {
			alg := toom.MustNew(c.k)
			a := randOperand(rng, 1<<14)
			b := randOperand(rng, 1<<14)
			res, err := Multiply(a, b, Options{Alg: alg, P: c.p, F: c.f, DFSSteps: c.dfs})
			checkProduct(t, a, b, res, err)
			if len(res.DeadColumns) != 0 {
				t.Errorf("dead columns on a fault-free run: %v", res.DeadColumns)
			}
		})
	}
}

func TestNegativeOperands(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	alg := toom.MustNew(2)
	a := randOperand(rng, 4096).Neg()
	b := randOperand(rng, 4096)
	res, err := Multiply(a, b, Options{Alg: alg, P: 9, F: 1})
	checkProduct(t, a, b, res, err)
}

func TestFaultDuringEvaluation(t *testing.T) {
	// A worker dies at the evaluation stage: the linear code rebuilds its
	// input shares and the run completes correctly (Section 4.1).
	rng := rand.New(rand.NewSource(83))
	alg := toom.MustNew(2)
	a, b := randOperand(rng, 1<<14), randOperand(rng, 1<<14)
	lay, _ := NewLayout(9, 2, 2)
	for _, victim := range []int{0, 4, 8} {
		res, err := Multiply(a, b, Options{
			Alg: alg, P: 9, F: 2,
			Faults: []machine.Fault{{Proc: victim, Phase: PhaseEval}},
		})
		checkProduct(t, a, b, res, err)
		if res.Recovered == 0 {
			t.Errorf("victim %d: no recovery recorded", victim)
		}
		if len(res.DeadColumns) != 0 {
			t.Errorf("victim %d: eval fault should not kill a column", victim)
		}
	}
	_ = lay
}

func TestTwoFaultsSameColumnEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	alg := toom.MustNew(2)
	a, b := randOperand(rng, 1<<13), randOperand(rng, 1<<13)
	lay, _ := NewLayout(9, 2, 2)
	res, err := Multiply(a, b, Options{
		Alg: alg, P: 9, F: 2,
		Faults: []machine.Fault{
			{Proc: lay.Worker(0, 1), Phase: PhaseEval},
			{Proc: lay.Worker(2, 1), Phase: PhaseEval},
		},
	})
	checkProduct(t, a, b, res, err)
}

func TestCodeProcessorFaultAtEvaluation(t *testing.T) {
	// Losing a code processor triggers re-encoding, not data loss.
	rng := rand.New(rand.NewSource(85))
	alg := toom.MustNew(2)
	a, b := randOperand(rng, 1<<13), randOperand(rng, 1<<13)
	lay, _ := NewLayout(9, 2, 1)
	res, err := Multiply(a, b, Options{
		Alg: alg, P: 9, F: 1,
		Faults: []machine.Fault{{Proc: lay.LinearCode(0, 2), Phase: PhaseEval}},
	})
	checkProduct(t, a, b, res, err)
}

func TestFaultDuringMultiplication(t *testing.T) {
	// A fault in the multiplication stage halts the column; the redundant
	// evaluation point substitutes (Section 4.2).
	rng := rand.New(rand.NewSource(86))
	alg := toom.MustNew(2)
	a, b := randOperand(rng, 1<<14), randOperand(rng, 1<<14)
	lay, _ := NewLayout(9, 2, 1)
	victim := lay.Worker(1, 1)
	res, err := Multiply(a, b, Options{
		Alg: alg, P: 9, F: 1,
		Faults: []machine.Fault{{Proc: victim, Phase: PhaseMul}},
	})
	checkProduct(t, a, b, res, err)
	if len(res.DeadColumns) != 1 || res.DeadColumns[0] != 1 {
		t.Errorf("dead columns = %v, want [1]", res.DeadColumns)
	}
}

func TestFaultInPolyCodeColumn(t *testing.T) {
	// Losing a redundant column is harmless when the 2k-1 originals survive.
	rng := rand.New(rand.NewSource(87))
	alg := toom.MustNew(2)
	a, b := randOperand(rng, 1<<13), randOperand(rng, 1<<13)
	lay, _ := NewLayout(9, 2, 1)
	res, err := Multiply(a, b, Options{
		Alg: alg, P: 9, F: 1,
		Faults: []machine.Fault{{Proc: lay.PolyCode(0, 0), Phase: PhaseMul}},
	})
	checkProduct(t, a, b, res, err)
	if len(res.DeadColumns) != 1 || res.DeadColumns[0] != 3 {
		t.Errorf("dead columns = %v, want [3]", res.DeadColumns)
	}
}

func TestTwoColumnFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	alg := toom.MustNew(2)
	a, b := randOperand(rng, 1<<14), randOperand(rng, 1<<14)
	lay, _ := NewLayout(9, 2, 2)
	res, err := Multiply(a, b, Options{
		Alg: alg, P: 9, F: 2,
		Faults: []machine.Fault{
			{Proc: lay.Worker(0, 0), Phase: PhaseMul},
			{Proc: lay.Worker(2, 2), Phase: PhaseMul},
		},
	})
	checkProduct(t, a, b, res, err)
	if len(res.DeadColumns) != 2 {
		t.Errorf("dead columns = %v", res.DeadColumns)
	}
}

func TestFaultDuringInterpolation(t *testing.T) {
	// The re-created code over the child products restores interpolation-
	// stage losses without recomputation.
	rng := rand.New(rand.NewSource(89))
	alg := toom.MustNew(2)
	a, b := randOperand(rng, 1<<14), randOperand(rng, 1<<14)
	lay, _ := NewLayout(9, 2, 1)
	res, err := Multiply(a, b, Options{
		Alg: alg, P: 9, F: 1,
		Faults: []machine.Fault{{Proc: lay.Worker(1, 2), Phase: PhaseInterp}},
	})
	checkProduct(t, a, b, res, err)
	if len(res.DeadColumns) != 0 {
		t.Errorf("interp fault on worker column should be repaired, got dead %v", res.DeadColumns)
	}
}

func TestToleranceExceeded(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	alg := toom.MustNew(2)
	a, b := randOperand(rng, 1<<13), randOperand(rng, 1<<13)
	lay, _ := NewLayout(9, 2, 1)
	_, err := Multiply(a, b, Options{
		Alg: alg, P: 9, F: 1,
		Faults: []machine.Fault{
			{Proc: lay.Worker(0, 0), Phase: PhaseMul},
			{Proc: lay.Worker(0, 1), Phase: PhaseMul},
		},
	})
	if err == nil {
		t.Fatal("two column faults with f=1 must fail loudly")
	}
}

func TestFaultWithDFSSteps(t *testing.T) {
	// Limited-memory schedule: a fault during the second DFS sub-problem's
	// multiplication phase (hit 1 of the mul barrier).
	rng := rand.New(rand.NewSource(91))
	alg := toom.MustNew(2)
	a, b := randOperand(rng, 1<<14), randOperand(rng, 1<<14)
	lay, _ := NewLayout(9, 2, 1)
	res, err := Multiply(a, b, Options{
		Alg: alg, P: 9, F: 1, DFSSteps: 1,
		Faults: []machine.Fault{{Proc: lay.Worker(1, 0), Phase: PhaseMul, Hit: 1}},
	})
	checkProduct(t, a, b, res, err)
	if len(res.DeadColumns) != 1 {
		t.Errorf("dead columns = %v", res.DeadColumns)
	}
}

func TestFaultsAcrossPhases(t *testing.T) {
	// One fault per phase, all within tolerance f=2... but note PhaseMul
	// kills a column while the others are repaired.
	rng := rand.New(rand.NewSource(92))
	alg := toom.MustNew(2)
	a, b := randOperand(rng, 1<<14), randOperand(rng, 1<<14)
	lay, _ := NewLayout(9, 2, 2)
	res, err := Multiply(a, b, Options{
		Alg: alg, P: 9, F: 2,
		Faults: []machine.Fault{
			{Proc: lay.Worker(0, 0), Phase: PhaseEval},
			{Proc: lay.Worker(1, 1), Phase: PhaseMul},
			{Proc: lay.Worker(2, 2), Phase: PhaseInterp},
		},
	})
	checkProduct(t, a, b, res, err)
	if len(res.DeadColumns) != 1 || res.DeadColumns[0] != 1 {
		t.Errorf("dead columns = %v, want [1]", res.DeadColumns)
	}
}

func TestOverheadSmallWithoutFaults(t *testing.T) {
	// Theorem 5.2: F' = (1+o(1))·F etc. — the coded run's critical-path
	// costs should stay within a modest factor of the plain run's on a
	// fault-free execution.
	rng := rand.New(rand.NewSource(93))
	alg := toom.MustNew(2)
	a, b := randOperand(rng, 1<<16), randOperand(rng, 1<<16)
	plain, err := parallel.Multiply(a, b, parallel.Options{Alg: alg, P: 9})
	if err != nil {
		t.Fatal(err)
	}
	ft, err := Multiply(a, b, Options{Alg: alg, P: 9, F: 1})
	checkProduct(t, a, b, ft, err)
	fRatio := float64(ft.Report.F) / float64(plain.Report.F)
	bwRatio := float64(ft.Report.BW) / float64(plain.Report.BW)
	if fRatio > 2.0 {
		t.Errorf("FT arithmetic overhead factor %.2f too large", fRatio)
	}
	if bwRatio > 3.0 {
		t.Errorf("FT bandwidth overhead factor %.2f too large", bwRatio)
	}
}

func TestOptionValidation(t *testing.T) {
	alg := toom.MustNew(2)
	if _, err := Multiply(bigint.One(), bigint.One(), Options{P: 9, F: 1}); err == nil {
		t.Error("missing Alg should fail")
	}
	if _, err := Multiply(bigint.One(), bigint.One(), Options{Alg: alg, P: 8, F: 1}); err == nil {
		t.Error("bad P should fail")
	}
	if _, err := Multiply(bigint.One(), bigint.One(), Options{Alg: alg, P: 9, F: -1}); err == nil {
		t.Error("negative F should fail")
	}
}

func TestTwoInterpolationFaultsSameColumn(t *testing.T) {
	// Two product shares lost in the same worker column at the
	// interpolation stage: the re-created code (f=2) must rebuild both via
	// the two code rows.
	rng := rand.New(rand.NewSource(94))
	alg := toom.MustNew(2)
	a, b := randOperand(rng, 1<<14), randOperand(rng, 1<<14)
	lay, _ := NewLayout(9, 2, 2)
	res, err := Multiply(a, b, Options{
		Alg: alg, P: 9, F: 2,
		Faults: []machine.Fault{
			{Proc: lay.Worker(0, 2), Phase: PhaseInterp},
			{Proc: lay.Worker(2, 2), Phase: PhaseInterp},
		},
	})
	checkProduct(t, a, b, res, err)
	if len(res.DeadColumns) != 0 {
		t.Errorf("interp faults should be repaired, got dead %v", res.DeadColumns)
	}
	if res.Recovered < 2 {
		t.Errorf("recoveries = %d", res.Recovered)
	}
}

func TestEvalAndInterpFaultSamePlace(t *testing.T) {
	// The same processor dies twice: at evaluation and again at
	// interpolation. Both recoveries must fire.
	rng := rand.New(rand.NewSource(95))
	alg := toom.MustNew(2)
	a, b := randOperand(rng, 1<<13), randOperand(rng, 1<<13)
	lay, _ := NewLayout(9, 2, 2)
	res, err := Multiply(a, b, Options{
		Alg: alg, P: 9, F: 2,
		Faults: []machine.Fault{
			{Proc: lay.Worker(1, 0), Phase: PhaseEval},
			{Proc: lay.Worker(1, 0), Phase: PhaseInterp},
		},
	})
	checkProduct(t, a, b, res, err)
}

package ftmatmul_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bigint"
	"repro/internal/ftengine"
	"repro/internal/ftmatmul"
	"repro/internal/machine"
	"repro/internal/mat"
)

func randMat(rng *rand.Rand, rows, cols, bits int) *mat.IntMat {
	m := mat.NewIntMat(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			v := bigint.Random(rng, 1+rng.Intn(bits))
			if rng.Intn(2) == 0 {
				v = v.Neg()
			}
			m.Set(i, j, v)
		}
	}
	return m
}

func mustEqual(t *testing.T, ctx string, got, want *mat.IntMat) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("%s: shape %dx%d, want %dx%d", ctx, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for i := 0; i < want.Rows(); i++ {
		for j := 0; j < want.Cols(); j++ {
			if got.At(i, j).Cmp(want.At(i, j)) != 0 {
				t.Fatalf("%s: C[%d][%d] = %s, want %s", ctx, i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
}

// TestFaultFree pins the fault-free product against the naive oracle on both
// backends and a spread of shapes, including odd and rectangular ones that
// exercise the padding.
func TestFaultFree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := [][3]int{{2, 2, 2}, {4, 4, 4}, {8, 8, 8}, {3, 3, 3}, {5, 7, 3}, {1, 6, 4}, {6, 1, 1}}
	for _, s := range shapes {
		a := randMat(rng, s[0], s[1], 48)
		b := randMat(rng, s[1], s[2], 48)
		want := a.MulNaive(b)
		for _, backend := range []machine.Backend{machine.BackendSim, machine.BackendWall} {
			res, err := ftmatmul.Multiply(a, b, ftmatmul.Options{Machine: machine.Config{Backend: backend}})
			if err != nil {
				t.Fatalf("%v %s: %v", s, backend, err)
			}
			mustEqual(t, fmt.Sprintf("%v %s", s, backend), res.C, want)
			if len(res.Dead) != 0 {
				t.Fatalf("%v %s: fault-free run reports dead ranks %v", s, backend, res.Dead)
			}
		}
	}
}

// TestEverySingleFailStop is the scheme's headline claim: the exact product
// survives every single fail-stop plan — any of the 15 ranks, in either the
// data-distribution phase (repaired by replica refetch, no product lost) or
// the compute phase (product lost, the other algorithm family decodes) — on
// both backends.
func TestEverySingleFailStop(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randMat(rng, 6, 6, 64)
	b := randMat(rng, 6, 6, 64)
	want := a.MulNaive(b)

	for _, backend := range []machine.Backend{machine.BackendSim, machine.BackendWall} {
		for proc := 0; proc < 15; proc++ {
			for _, phase := range []string{ftengine.PhaseEval, ftengine.PhaseMul} {
				ctx := fmt.Sprintf("%s proc=%d phase=%s", backend, proc, phase)
				res, err := ftmatmul.Multiply(a, b, ftmatmul.Options{
					Machine: machine.Config{Backend: backend},
					Faults:  []machine.Fault{{Proc: proc, Phase: phase}},
				})
				if err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				mustEqual(t, ctx, res.C, want)
				switch phase {
				case ftengine.PhaseEval:
					if len(res.Dead) != 0 {
						t.Errorf("%s: eval victim should recover, got dead %v", ctx, res.Dead)
					}
					if res.Recovered != 1 {
						t.Errorf("%s: Recovered = %d, want 1", ctx, res.Recovered)
					}
				case ftengine.PhaseMul:
					if len(res.Dead) != 1 || res.Dead[0] != proc {
						t.Errorf("%s: Dead = %v, want [%d]", ctx, res.Dead, proc)
					}
				}
			}
		}
	}
}

// TestBackendsAgreeOnCounts pins that the F/BW/L accounting is
// backend-independent for the matrix workload too: identical counts on the
// sim and wall backends, fault-free and under a compute-phase fault.
func TestBackendsAgreeOnCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randMat(rng, 8, 8, 64)
	b := randMat(rng, 8, 8, 64)
	for _, faults := range [][]machine.Fault{
		nil,
		{{Proc: 3, Phase: ftengine.PhaseMul}},
		{{Proc: 5, Phase: ftengine.PhaseEval}},
	} {
		sim, err := ftmatmul.Multiply(a, b, ftmatmul.Options{
			Machine: machine.Config{Backend: machine.BackendSim}, Faults: faults,
		})
		if err != nil {
			t.Fatalf("sim %v: %v", faults, err)
		}
		wall, err := ftmatmul.Multiply(a, b, ftmatmul.Options{
			Machine: machine.Config{Backend: machine.BackendWall}, Faults: faults,
		})
		if err != nil {
			t.Fatalf("wall %v: %v", faults, err)
		}
		if sim.Report.F != wall.Report.F || sim.Report.BW != wall.Report.BW || sim.Report.L != wall.Report.L {
			t.Errorf("faults %v: sim F/BW/L %d/%d/%d != wall %d/%d/%d", faults,
				sim.Report.F, sim.Report.BW, sim.Report.L,
				wall.Report.F, wall.Report.BW, wall.Report.L)
		}
	}
}

// TestPlainScheme pins the baseline: correct fault-free, honestly
// unrecoverable under a compute-phase fault.
func TestPlainScheme(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := randMat(rng, 6, 6, 64)
	b := randMat(rng, 6, 6, 64)
	want := a.MulNaive(b)
	res, err := ftmatmul.Multiply(a, b, ftmatmul.Options{Scheme: ftmatmul.SchemePlain})
	if err != nil {
		t.Fatalf("plain fault-free: %v", err)
	}
	mustEqual(t, "plain", res.C, want)
	for _, phase := range []string{ftengine.PhaseEval, ftengine.PhaseMul} {
		_, err = ftmatmul.Multiply(a, b, ftmatmul.Options{
			Scheme: ftmatmul.SchemePlain,
			Faults: []machine.Fault{{Proc: 2, Phase: phase}},
		})
		if err == nil {
			t.Fatalf("plain scheme silently survived a %s fault", phase)
		}
	}
}

// TestReplicatedScheme pins the comparison row: every single fail-stop on
// any of the 16 ranks, either phase, still yields the exact product.
func TestReplicatedScheme(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a := randMat(rng, 6, 6, 64)
	b := randMat(rng, 6, 6, 64)
	want := a.MulNaive(b)
	for proc := 0; proc < 16; proc++ {
		for _, phase := range []string{ftengine.PhaseEval, ftengine.PhaseMul} {
			ctx := fmt.Sprintf("repl proc=%d phase=%s", proc, phase)
			res, err := ftmatmul.Multiply(a, b, ftmatmul.Options{
				Scheme: ftmatmul.SchemeReplicated,
				Faults: []machine.Fault{{Proc: proc, Phase: phase}},
			})
			if err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			mustEqual(t, ctx, res.C, want)
		}
	}
}

// TestShapeMismatch rejects non-conformable inputs.
func TestShapeMismatch(t *testing.T) {
	a := mat.NewIntMat(2, 3)
	b := mat.NewIntMat(4, 2)
	if _, err := ftmatmul.Multiply(a, b, ftmatmul.Options{}); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

// TestFaultPlanCensus runs every plan of at most two fail-stops — none, one
// on any (rank, phase) cell, or two on distinct cells — on all three schemes
// and both backends. Every plan must give the exact product or an
// ftengine.ToleranceError, never a wrong matrix, another error or a panic,
// and the split is pinned per scheme:
//
//   - two-algorithm (15 ranks, 466 plans): 64 errors — the 8 eval pairs of a
//     standard rank and its replica partner (both copies of a tile gone) and
//     the 56 mul pairs of a standard and a Strassen rank (both families
//     broken);
//   - replicated (16 ranks, 529 plans): 16 errors — a product's two twins
//     both lost at eval or both at mul;
//   - plain (8 ranks, 137 plans): only the fault-free plan is exact.
func TestFaultPlanCensus(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	a := randMat(rng, 6, 6, 64)
	b := randMat(rng, 6, 6, 64)
	want := a.MulNaive(b)
	schemes := []struct {
		scheme        ftmatmul.Scheme
		ranks         int
		exact, failed int
	}{
		{ftmatmul.SchemeTwoAlg, 15, 402, 64},
		{ftmatmul.SchemeReplicated, 16, 513, 16},
		{ftmatmul.SchemePlain, 8, 1, 136},
	}
	for _, sc := range schemes {
		var cells []machine.Fault
		for r := 0; r < sc.ranks; r++ {
			for _, phase := range []string{ftengine.PhaseEval, ftengine.PhaseMul} {
				cells = append(cells, machine.Fault{Proc: r, Phase: phase})
			}
		}
		plans := [][]machine.Fault{nil}
		for i := range cells {
			plans = append(plans, cells[i:i+1])
			for j := i + 1; j < len(cells); j++ {
				plans = append(plans, []machine.Fault{cells[i], cells[j]})
			}
		}
		for _, backend := range []machine.Backend{machine.BackendSim, machine.BackendWall} {
			exact, failed := 0, 0
			for _, plan := range plans {
				res, err := ftmatmul.Multiply(a, b, ftmatmul.Options{
					Machine: machine.Config{Backend: backend},
					Faults:  plan,
					Scheme:  sc.scheme,
				})
				if err != nil {
					var tol *ftengine.ToleranceError
					if !errors.As(err, &tol) {
						t.Errorf("scheme %q %s %v: error is not a ToleranceError: %v", sc.scheme, backend, plan, err)
					}
					failed++
					continue
				}
				mustEqual(t, fmt.Sprintf("scheme %q %s %v", sc.scheme, backend, plan), res.C, want)
				exact++
			}
			if exact != sc.exact || failed != sc.failed {
				t.Errorf("scheme %q %s: %d exact and %d errors over %d plans, want %d and %d",
					sc.scheme, backend, exact, failed, len(plans), sc.exact, sc.failed)
			}
		}
	}
}

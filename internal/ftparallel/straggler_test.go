package ftparallel

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/machine"
	"repro/internal/parallel"
	"repro/internal/toom"
)

// slowColumn builds a SpeedFactors vector slowing every processor of one
// grid column by `factor`.
func slowColumn(lay Layout, col int, factor float64) []float64 {
	sf := make([]float64, lay.Total())
	for i := range sf {
		sf[i] = 1
	}
	for r := 0; r < lay.GPrime; r++ {
		sf[lay.ColumnRank(r, col)] = factor
	}
	return sf
}

func TestStragglerModeCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(161))
	alg := toom.MustNew(2)
	lay, _ := NewLayout(9, 2, 1)
	a, b := randOperand(rng, 1<<14), randOperand(rng, 1<<14)
	want := new(big.Int).Mul(a.ToBig(), b.ToBig())
	res, err := Multiply(a, b, Options{
		Alg: alg, P: 9, F: 1,
		StragglerSlack: 50000,
		Machine:        machine.Config{SpeedFactors: slowColumn(lay, 1, 50)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Product.ToBig().Cmp(want) != 0 {
		t.Fatal("straggler-mode product mismatch")
	}
	if len(res.DeadColumns) != 1 || res.DeadColumns[0] != 1 {
		t.Errorf("dropped columns = %v, want [1] (the straggler)", res.DeadColumns)
	}
}

func TestStragglerModeNoStragglers(t *testing.T) {
	// Uniform speeds: nothing is dropped and the product is exact.
	rng := rand.New(rand.NewSource(162))
	alg := toom.MustNew(2)
	a, b := randOperand(rng, 1<<13), randOperand(rng, 1<<13)
	want := new(big.Int).Mul(a.ToBig(), b.ToBig())
	res, err := Multiply(a, b, Options{
		Alg: alg, P: 9, F: 1,
		StragglerSlack: 1e7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Product.ToBig().Cmp(want) != 0 {
		t.Fatal("product mismatch")
	}
	if len(res.DeadColumns) != 0 {
		t.Errorf("dropped %v without stragglers", res.DeadColumns)
	}
}

func TestStragglerModeReducesCompletionTime(t *testing.T) {
	// The delay-fault story: plain parallel must wait for the slow column;
	// the coded run proceeds without it. Compare the completion time of
	// the processors actually holding the result.
	rng := rand.New(rand.NewSource(163))
	alg := toom.MustNew(2)
	lay, _ := NewLayout(9, 2, 1)
	a, b := randOperand(rng, 1<<15), randOperand(rng, 1<<15)
	const factor = 100.0

	// Plain run with the same slowdown on workers 3..5 (column 1).
	sfPlain := make([]float64, 9)
	for i := range sfPlain {
		sfPlain[i] = 1
	}
	for r := 0; r < 3; r++ {
		sfPlain[3+r] = factor
	}
	plain, err := parallel.Multiply(a, b, parallel.Options{
		Alg: alg, P: 9,
		Machine: machine.Config{SpeedFactors: sfPlain},
	})
	if err != nil {
		t.Fatal(err)
	}

	res, err := Multiply(a, b, Options{
		Alg: alg, P: 9, F: 1,
		StragglerSlack: 100000,
		Machine:        machine.Config{SpeedFactors: slowColumn(lay, 1, factor)},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Result-holder completion: max clock over processors outside the
	// dropped column (the straggler itself keeps computing in the
	// background, but nobody waits for it).
	var ready float64
	for rank, s := range res.Report.PerProc {
		if c, ok := res.Layout.ColumnOf(rank); ok && c == 1 {
			continue
		}
		if s.Clock > ready {
			ready = s.Clock
		}
	}
	if ready >= plain.Report.Time/2 {
		t.Errorf("straggler mitigation gave no speedup: coded ready=%.0f vs plain=%.0f", ready, plain.Report.Time)
	}
}

// TestStragglerModePinnedCounts pins the cost of one straggler-mode
// multiply with a slowed column on the sim clock, so that any change to
// what the completion reports and decisions carry shows up as a moved
// count or a moved completion time.
func TestStragglerModePinnedCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(161))
	lay, _ := NewLayout(9, 2, 1)
	a, b := randOperand(rng, 1<<14), randOperand(rng, 1<<14)
	res, err := Multiply(a, b, Options{
		Alg: toom.MustNew(2), P: 9, F: 1,
		StragglerSlack: 50000,
		Machine:        machine.Config{SpeedFactors: slowColumn(lay, 1, 50)},
	})
	if err != nil {
		t.Fatal(err)
	}
	type counts struct {
		F, BW, L, TotalBW, TotalL int64
		Time                      float64
	}
	r := res.Report
	got := counts{r.F, r.BW, r.L, r.TotalBW, r.TotalL, r.Time}
	want := counts{F: 22701, BW: 364, L: 14, TotalBW: 3787, TotalL: 135, Time: 1112240}
	if got != want {
		t.Errorf("got %+v, want %+v", got, want)
	}
}

func TestStragglerSlackTooSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(164))
	alg := toom.MustNew(2)
	lay, _ := NewLayout(9, 2, 1)
	a, b := randOperand(rng, 1<<13), randOperand(rng, 1<<13)
	// Two slow columns against f=1 redundancy, with a slack too small for
	// either: the run must fail loudly.
	sf := slowColumn(lay, 1, 200)
	for r := 0; r < lay.GPrime; r++ {
		sf[lay.ColumnRank(r, 2)] = 200
	}
	_, err := Multiply(a, b, Options{
		Alg: alg, P: 9, F: 1,
		StragglerSlack: 1, // essentially zero slack
		Machine:        machine.Config{SpeedFactors: sf},
	})
	if err == nil {
		t.Fatal("two stragglers against f=1 with tiny slack must fail")
	}
}

func TestStragglerOptionValidation(t *testing.T) {
	alg := toom.MustNew(2)
	if _, err := Multiply(randOperand(rand.New(rand.NewSource(1)), 64), randOperand(rand.New(rand.NewSource(2)), 64),
		Options{Alg: alg, P: 9, F: 1, StragglerSlack: 10,
			Faults: []machine.Fault{{Proc: 0, Phase: PhaseMul}}}); err == nil {
		t.Error("straggler mode with fault injection should fail")
	}
}

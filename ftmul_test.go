package ftmul

import (
	"errors"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func randBig(rng *rand.Rand, bits int) *big.Int {
	z := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(bits)))
	if rng.Intn(2) == 0 {
		z.Neg(z)
	}
	return z
}

func TestMul(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	for i := 0; i < 50; i++ {
		a, b := randBig(rng, 8192), randBig(rng, 8192)
		want := new(big.Int).Mul(a, b)
		if got := Mul(a, b); got.Cmp(want) != 0 {
			t.Fatalf("Mul mismatch at trial %d", i)
		}
	}
}

func TestMulQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	f := func(_ int) bool {
		a, b := randBig(rng, 1+rng.Intn(16384)), randBig(rng, 1+rng.Intn(16384))
		return Mul(a, b).Cmp(new(big.Int).Mul(a, b)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMulToom(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
	a, b := randBig(rng, 1<<13), randBig(rng, 1<<13)
	want := new(big.Int).Mul(a, b)
	for k := 2; k <= 5; k++ {
		got, err := MulToom(a, b, k)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("MulToom k=%d mismatch", k)
		}
	}
	if _, err := MulToom(a, b, 1); err == nil {
		t.Error("k=1 should fail")
	}
}

func TestMulParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(204))
	a, b := randBig(rng, 1<<14), randBig(rng, 1<<14)
	want := new(big.Int).Mul(a, b)
	got, rep, err := MulParallel(a, b, 2, ClusterConfig{P: 9})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 {
		t.Fatal("MulParallel mismatch")
	}
	if rep.F == 0 || rep.BW == 0 || rep.L == 0 || rep.Time == 0 {
		t.Errorf("empty cost report: %+v", rep)
	}
	if rep.Processors != 9 {
		t.Errorf("processors = %d", rep.Processors)
	}
}

func TestMulParallelLimitedMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(205))
	a, b := randBig(rng, 1<<15), randBig(rng, 1<<15)
	want := new(big.Int).Mul(a, b)
	got, _, err := MulParallel(a, b, 2, ClusterConfig{P: 9, MemoryWords: 64})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 {
		t.Fatal("limited-memory MulParallel mismatch")
	}
}

func TestMulFaultTolerantCleanAndFaulty(t *testing.T) {
	rng := rand.New(rand.NewSource(206))
	a, b := randBig(rng, 1<<14), randBig(rng, 1<<14)
	want := new(big.Int).Mul(a, b)

	got, rep, err := MulFaultTolerant(a, b, 2, 1, ClusterConfig{P: 9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 {
		t.Fatal("clean FT run mismatch")
	}
	if rep.CodeProcessors != 1*3+1*3 {
		t.Errorf("code processors = %d", rep.CodeProcessors)
	}

	got, rep, err = MulFaultTolerant(a, b, 2, 1, ClusterConfig{P: 9},
		[]Fault{{Proc: 4, Phase: PhaseMul}})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 {
		t.Fatal("faulty FT run mismatch")
	}
	if len(rep.DeadColumns) != 1 {
		t.Errorf("dead columns = %v", rep.DeadColumns)
	}
}

// TestTwoFaultCensus runs all 945 plans of two fail-stops on distinct
// ranks of the f = 1 machine (P = 9 workers plus 6 code processors, each
// victim hit at eval, mul or interp) on 2^12-bit operands, on sim. Every
// plan must give the exact product or a ToleranceError, never a wrong
// product, another error or a panic, and the split is pinned: 810 exact,
// 135 beyond tolerance.
func TestTwoFaultCensus(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	a, b := randBig(rng, 1<<12), randBig(rng, 1<<12)
	want := new(big.Int).Mul(a, b)
	lay, err := GridLayout(9, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	phases := []string{PhaseEval, PhaseMul, PhaseInterp}
	plans, exact := 0, 0
	for r1 := 0; r1 < lay.Total(); r1++ {
		for r2 := r1 + 1; r2 < lay.Total(); r2++ {
			for _, p1 := range phases {
				for _, p2 := range phases {
					plan := []Fault{{Proc: r1, Phase: p1}, {Proc: r2, Phase: p2}}
					plans++
					got, _, err := MulFaultTolerant(a, b, 2, 1, ClusterConfig{P: 9}, plan)
					if err != nil {
						var tol *ToleranceError
						if !errors.As(err, &tol) {
							t.Errorf("plan %v: error is not a ToleranceError: %v", plan, err)
						}
						continue
					}
					if got.Cmp(want) != 0 {
						t.Fatalf("plan %v: wrong product", plan)
					}
					exact++
				}
			}
		}
	}
	if plans != 945 || exact != 810 {
		t.Errorf("%d plans, %d exact, %d ToleranceErrors; want 945, 810 and 135", plans, exact, plans-exact)
	}
}

// TestThreeFaultCensus runs 400 seeded plans of three fail-stops on the
// f = 2 machine (P = 9 workers plus 12 code processors, one DFS step) on
// 2^12-bit operands, on sim and on wall. A plan's three victims are
// distinct ranks that die at one barrier crossing: the same phase and, at
// mul or interp, the same one of the DFS step's three sub-problems, a
// shape that often exceeds f (fully random three-fault plans almost never
// do). Every plan must give the exact product or a ToleranceError, the
// same outcome on both backends, and the split is pinned.
func TestThreeFaultCensus(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	a, b := randBig(rng, 1<<12), randBig(rng, 1<<12)
	want := new(big.Int).Mul(a, b)
	lay, err := GridLayout(9, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	phases := []string{PhaseEval, PhaseMul, PhaseInterp}
	plans := make([][]Fault, 400)
	for i := range plans {
		phase, hit := phases[rng.Intn(len(phases))], 0
		if phase != PhaseEval {
			hit = rng.Intn(3)
		}
		for _, r := range rng.Perm(lay.Total())[:3] {
			plans[i] = append(plans[i], Fault{Proc: r, Phase: phase, Hit: hit})
		}
	}
	var exact [2][]bool
	for bi, backend := range []string{"sim", "wall"} {
		exact[bi] = make([]bool, len(plans))
		for i, plan := range plans {
			got, _, err := MulFaultTolerant(a, b, 2, 2, ClusterConfig{P: 9, DFSSteps: 1, Backend: backend}, plan)
			if err != nil {
				var tol *ToleranceError
				if !errors.As(err, &tol) {
					t.Errorf("%s plan %v: error is not a ToleranceError: %v", backend, plan, err)
				}
				continue
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("%s plan %v: wrong product", backend, plan)
			}
			exact[bi][i] = true
		}
	}
	n := 0
	for i := range plans {
		if exact[0][i] != exact[1][i] {
			t.Errorf("plan %v: exact on sim %v, on wall %v", plans[i], exact[0][i], exact[1][i])
		}
		if exact[0][i] {
			n++
		}
	}
	if n != 354 {
		t.Errorf("%d exact, %d ToleranceErrors; want 354 and 46", n, len(plans)-n)
	}
}

func TestMulReplicated(t *testing.T) {
	rng := rand.New(rand.NewSource(207))
	a, b := randBig(rng, 1<<13), randBig(rng, 1<<13)
	want := new(big.Int).Mul(a, b)
	got, rep, err := MulReplicated(a, b, 2, 1, ClusterConfig{P: 9},
		[]Fault{{Proc: 0, Phase: PhaseMul}})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 {
		t.Fatal("MulReplicated mismatch")
	}
	if rep.ChosenFleet != 1 {
		t.Errorf("chosen fleet = %d", rep.ChosenFleet)
	}
}

func TestMulCheckpointRestart(t *testing.T) {
	rng := rand.New(rand.NewSource(208))
	a, b := randBig(rng, 1<<13), randBig(rng, 1<<13)
	want := new(big.Int).Mul(a, b)
	got, rep, err := MulCheckpointRestart(a, b, 2, ClusterConfig{P: 9},
		[]Fault{{Proc: 3, Phase: PhaseMul}})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 {
		t.Fatal("MulCheckpointRestart mismatch")
	}
	if rep.Restarts != 1 {
		t.Errorf("restarts = %d", rep.Restarts)
	}
}

func TestGridLayout(t *testing.T) {
	lay, err := GridLayout(9, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if lay.Total() != 21 {
		t.Errorf("total = %d", lay.Total())
	}
	if _, err := GridLayout(10, 2, 1); err == nil {
		t.Error("bad P should fail")
	}
}

func TestClusterConfigValidate(t *testing.T) {
	if err := (ClusterConfig{P: 9}).Validate(2); err != nil {
		t.Errorf("P=9 k=2 should validate: %v", err)
	}
	if err := (ClusterConfig{P: 10}).Validate(2); err == nil {
		t.Error("P=10 k=2 should fail")
	}
	if err := (ClusterConfig{P: 0}).Validate(2); err == nil {
		t.Error("P=0 should fail")
	}
	if err := (ClusterConfig{P: 5}).Validate(1); err == nil {
		t.Error("k=1 should fail")
	}
}

func TestZeroAndSmallOperands(t *testing.T) {
	zero := big.NewInt(0)
	seven := big.NewInt(7)
	if got := Mul(zero, seven); got.Sign() != 0 {
		t.Errorf("0·7 = %v", got)
	}
	got, _, err := MulParallel(zero, seven, 2, ClusterConfig{P: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got.Sign() != 0 {
		t.Errorf("parallel 0·7 = %v", got)
	}
	neg := big.NewInt(-12345)
	if got := Mul(neg, seven); got.Cmp(big.NewInt(-86415)) != 0 {
		t.Errorf("-12345·7 = %v", got)
	}
}

func TestMulStragglerTolerant(t *testing.T) {
	rng := rand.New(rand.NewSource(209))
	a, b := randBig(rng, 1<<14), randBig(rng, 1<<14)
	want := new(big.Int).Mul(a, b)
	slow := make([]float64, 15) // 9 workers + 3 linear + 3 poly code procs
	for i := range slow {
		slow[i] = 1
	}
	slow[3], slow[4], slow[5] = 80, 80, 80 // column 1
	got, rep, err := MulStragglerTolerant(a, b, 2, 1, 100000,
		ClusterConfig{P: 9, SpeedFactors: slow})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(want) != 0 {
		t.Fatal("straggler-tolerant product mismatch")
	}
	if len(rep.DeadColumns) != 1 || rep.DeadColumns[0] != 1 {
		t.Errorf("dropped columns = %v", rep.DeadColumns)
	}
	for _, slack := range []float64{0, -1} {
		if _, _, err := MulStragglerTolerant(a, b, 2, 1, slack, ClusterConfig{P: 9}); err == nil {
			t.Errorf("slack %v: want an error", slack)
		}
	}
}

package ftmul

// Benchmark harness: one benchmark family per table/figure of the paper
// (see DESIGN.md §4 for the experiment index and EXPERIMENTS.md for
// recorded results). Wall-clock numbers measure the simulator, not a real
// cluster; the claims under test are the cost *shapes*, which the benches
// print via b.ReportMetric (critical-path F, BW, L from the machine model).
//
// Run with:  go test -bench=. -benchmem

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

func benchOperands(bits int) (bigint.Int, bigint.Int) {
	rng := rand.New(rand.NewSource(1234))
	return bigint.Random(rng, bits), bigint.Random(rng, bits)
}

func reportCosts(b *testing.B, rep *machine.Report) {
	b.ReportMetric(float64(rep.F), "F/op")
	b.ReportMetric(float64(rep.BW), "BW/op")
	b.ReportMetric(float64(rep.L), "L/op")
}

// --- Table 1: unlimited memory ------------------------------------------

func BenchmarkTable1PlainParallel(b *testing.B) {
	a, x := benchOperands(1 << 16)
	alg := toom.MustNew(2)
	var last *machine.Report
	for i := 0; i < b.N; i++ {
		res, err := parallel.Multiply(a, x, parallel.Options{Alg: alg, P: 9})
		if err != nil {
			b.Fatal(err)
		}
		last = res.Report
	}
	reportCosts(b, last)
}

func BenchmarkTable1FaultTolerant(b *testing.B) {
	a, x := benchOperands(1 << 16)
	alg := toom.MustNew(2)
	var last *machine.Report
	for i := 0; i < b.N; i++ {
		res, err := ftparallel.Multiply(a, x, ftparallel.Options{Alg: alg, P: 9, F: 1})
		if err != nil {
			b.Fatal(err)
		}
		last = res.Report
	}
	reportCosts(b, last)
}

// BenchmarkTable1FaultTolerantK3 is the Toom-3 row beside the Toom-2 one:
// 2k−1 = 5 evaluation points, so P = 5 is one BFS step and P = 25 two.
func BenchmarkTable1FaultTolerantK3(b *testing.B) {
	a, x := benchOperands(1 << 16)
	alg := toom.MustNew(3)
	for _, p := range []int{5, 25} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			var last *machine.Report
			for i := 0; i < b.N; i++ {
				res, err := ftparallel.Multiply(a, x, ftparallel.Options{Alg: alg, P: p, F: 1})
				if err != nil {
					b.Fatal(err)
				}
				last = res.Report
			}
			reportCosts(b, last)
		})
	}
}

func BenchmarkTable1Replication(b *testing.B) {
	a, x := benchOperands(1 << 16)
	alg := toom.MustNew(2)
	var last *machine.Report
	for i := 0; i < b.N; i++ {
		res, err := ftparallel.MultiplyReplicated(a, x, ftparallel.ReplicationOptions{Alg: alg, P: 9, F: 1})
		if err != nil {
			b.Fatal(err)
		}
		last = res.Report
	}
	reportCosts(b, last)
}

// --- Table 2: limited memory (DFS steps per Lemma 3.1) -------------------

func BenchmarkTable2PlainParallelDFS(b *testing.B) {
	a, x := benchOperands(1 << 16)
	alg := toom.MustNew(2)
	var last *machine.Report
	for i := 0; i < b.N; i++ {
		res, err := parallel.Multiply(a, x, parallel.Options{Alg: alg, P: 9, DFSSteps: 2})
		if err != nil {
			b.Fatal(err)
		}
		last = res.Report
	}
	reportCosts(b, last)
}

func BenchmarkTable2FaultTolerantDFS(b *testing.B) {
	a, x := benchOperands(1 << 16)
	alg := toom.MustNew(2)
	var last *machine.Report
	for i := 0; i < b.N; i++ {
		res, err := ftparallel.Multiply(a, x, ftparallel.Options{Alg: alg, P: 9, F: 1, DFSSteps: 2})
		if err != nil {
			b.Fatal(err)
		}
		last = res.Report
	}
	reportCosts(b, last)
}

func BenchmarkTable2ReplicationDFS(b *testing.B) {
	a, x := benchOperands(1 << 16)
	alg := toom.MustNew(2)
	var last *machine.Report
	for i := 0; i < b.N; i++ {
		res, err := ftparallel.MultiplyReplicated(a, x, ftparallel.ReplicationOptions{Alg: alg, P: 9, F: 1, DFSSteps: 2})
		if err != nil {
			b.Fatal(err)
		}
		last = res.Report
	}
	reportCosts(b, last)
}

// --- Headline: overhead vs P sweep ---------------------------------------

func BenchmarkHeadline(b *testing.B) {
	a, x := benchOperands(1 << 15)
	alg := toom.MustNew(2)
	for _, p := range []int{3, 9, 27} {
		b.Run(fmt.Sprintf("ft/P=%d", p), func(b *testing.B) {
			var last *machine.Report
			for i := 0; i < b.N; i++ {
				res, err := ftparallel.Multiply(a, x, ftparallel.Options{Alg: alg, P: p, F: 1})
				if err != nil {
					b.Fatal(err)
				}
				last = res.Report
			}
			reportCosts(b, last)
		})
		b.Run(fmt.Sprintf("replication/P=%d", p), func(b *testing.B) {
			var last *machine.Report
			for i := 0; i < b.N; i++ {
				res, err := ftparallel.MultiplyReplicated(a, x, ftparallel.ReplicationOptions{Alg: alg, P: p, F: 1})
				if err != nil {
					b.Fatal(err)
				}
				last = res.Report
			}
			reportCosts(b, last)
		})
	}
}

// --- Figure 1: linear-code creation & recovery costs ---------------------

func BenchmarkFigure1EvalFaultRecovery(b *testing.B) {
	a, x := benchOperands(1 << 15)
	alg := toom.MustNew(2)
	var last *machine.Report
	for i := 0; i < b.N; i++ {
		res, err := ftparallel.Multiply(a, x, ftparallel.Options{
			Alg: alg, P: 9, F: 1,
			Faults: []machine.Fault{{Proc: 4, Phase: ftparallel.PhaseEval}},
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res.Report
	}
	reportCosts(b, last)
}

// --- Figure 2: polynomial-code multiplication-fault survival -------------

func BenchmarkFigure2MulFaultRecovery(b *testing.B) {
	a, x := benchOperands(1 << 15)
	alg := toom.MustNew(2)
	var last *machine.Report
	for i := 0; i < b.N; i++ {
		res, err := ftparallel.Multiply(a, x, ftparallel.Options{
			Alg: alg, P: 9, F: 1,
			Faults: []machine.Fault{{Proc: 4, Phase: ftparallel.PhaseMul}},
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res.Report
	}
	reportCosts(b, last)
}

func BenchmarkFigure2CheckpointRestartComparison(b *testing.B) {
	a, x := benchOperands(1 << 15)
	alg := toom.MustNew(2)
	var last *machine.Report
	for i := 0; i < b.N; i++ {
		res, err := ftparallel.MultiplyCheckpointRestart(a, x, ftparallel.CheckpointOptions{
			Alg: alg, P: 9,
			Faults: []machine.Fault{{Proc: 4, Phase: ftparallel.PhaseMul}},
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res.Report
	}
	reportCosts(b, last)
}

// --- Figure 3: multi-step traversal with erasures -------------------------

func BenchmarkFigure3MultiStep(b *testing.B) {
	a, x := benchOperands(1 << 14)
	for _, c := range []struct{ l, f, dead int }{{1, 1, 1}, {2, 1, 1}, {2, 2, 2}} {
		alg, err := multistep.New(2, c.l, c.f)
		if err != nil {
			b.Fatal(err)
		}
		dead := make([]int, c.dead)
		for i := range dead {
			dead[i] = i
		}
		b.Run(fmt.Sprintf("l=%d/f=%d/erased=%d", c.l, c.f, c.dead), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := alg.MulWithErasures(a, x, dead); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Sequential: Toom-Cook family and crossovers --------------------------

func BenchmarkSequentialToom(b *testing.B) {
	for _, k := range []int{2, 3, 4} {
		alg := toom.MustNew(k)
		for _, bits := range []int{1 << 12, 1 << 15, 1 << 18} {
			a, x := benchOperands(bits)
			b.Run(fmt.Sprintf("k=%d/bits=%d", k, bits), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_ = alg.Mul(a, x)
				}
			})
		}
	}
}

func BenchmarkSequentialSchoolbook(b *testing.B) {
	for _, bits := range []int{1 << 12, 1 << 15, 1 << 18} {
		a, x := benchOperands(bits)
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = a.Mul(x)
			}
		})
	}
}

func BenchmarkSequentialMathBigOracle(b *testing.B) {
	for _, bits := range []int{1 << 15, 1 << 18} {
		a, x := benchOperands(bits)
		ab, xb := a.ToBig(), x.ToBig()
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = new(big.Int).Mul(ab, xb)
			}
		})
	}
}

// --- Ablations -------------------------------------------------------------

func BenchmarkAblationToomGraph(b *testing.B) {
	a, x := benchOperands(1 << 16)
	for _, k := range []int{2, 3} {
		dense := toom.MustNew(k)
		sched := dense.WithInterpolationSequence(toomgraph.ForK(k))
		b.Run(fmt.Sprintf("dense/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = dense.Mul(a, x)
			}
		})
		b.Run(fmt.Sprintf("schedule/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = sched.Mul(a, x)
			}
		})
	}
}

func BenchmarkAblationLazyInterpolation(b *testing.B) {
	a, x := benchOperands(1 << 16)
	alg := toom.MustNew(2)
	b.Run("recursive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = alg.Mul(a, x)
		}
	})
	for _, depth := range []int{2, 4} {
		b.Run(fmt.Sprintf("lazy/l=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := alg.MulLazy(a, x, depth); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Public API ------------------------------------------------------------

// BenchmarkPublicMul times the public Mul and Square, which run on the
// kernel ladder at every size, from one word to just below ToomNTTBits.
func BenchmarkPublicMul(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	for _, bits := range []int{64, 1 << 10, 1 << 14, 1 << 16, 131071} {
		lim := new(big.Int).Lsh(big.NewInt(1), uint(bits))
		a := new(big.Int).Rand(rng, lim)
		x := new(big.Int).Rand(rng, lim)
		b.Run(fmt.Sprintf("mul/bits=%d", bits), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = Mul(a, x)
			}
		})
		b.Run(fmt.Sprintf("square/bits=%d", bits), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = Square(a)
			}
		})
	}
}

// --- Delay faults: straggler mitigation ------------------------------------

func BenchmarkStragglerMitigation(b *testing.B) {
	a, x := benchOperands(1 << 15)
	alg := toom.MustNew(2)
	lay, err := ftparallel.NewLayout(9, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	slow := make([]float64, lay.Total())
	for i := range slow {
		slow[i] = 1
	}
	for r := 0; r < lay.GPrime; r++ {
		slow[lay.ColumnRank(r, 1)] = 100
	}
	var last *machine.Report
	for i := 0; i < b.N; i++ {
		res, err := ftparallel.Multiply(a, x, ftparallel.Options{
			Alg: alg, P: 9, F: 1,
			StragglerSlack: 100000,
			Machine:        machine.Config{SpeedFactors: slow},
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res.Report
	}
	reportCosts(b, last)
}

// --- Soft faults ------------------------------------------------------------

func BenchmarkSoftFaultCorrection(b *testing.B) {
	a, x := benchOperands(1 << 12)
	c, err := softfault.New(3, 2)
	if err != nil {
		b.Fatal(err)
	}
	corrupt := map[int]bigint.Int{4: bigint.FromInt64(123456789)}
	for i := 0; i < b.N; i++ {
		if _, _, err := c.MulWithSoftFaults(a, x, corrupt); err != nil {
			b.Fatal(err)
		}
	}
}

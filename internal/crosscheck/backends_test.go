// Package crosscheck runs the fault-tolerant multiplication matrix on both
// machine backends — the deterministic virtual-clock simulator and the
// in-process wall-clock runtime — and asserts that the seam refactor changed
// nothing observable: products stay bit-identical to math/big on both
// backends, and the simulator's F/BW/L counts stay pinned to the values the
// seed simulator produced before the transport extraction.
package crosscheck

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/bigint"
	"repro/internal/ftengine"
	"repro/internal/ftmatmul"
	"repro/internal/ftparallel"
	"repro/internal/machine"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/toom"
)

// golden F/BW/L values captured from the seed simulator (commit c4ed587,
// before the transport seam) with seed 7, 8192-bit operands, k=2, P=9,
// f as listed. Any drift here means the refactor changed the cost model.
type goldenCounts struct {
	f, bw, l int64
}

func TestBackendsAgreeOnFaultMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := bigint.Random(rng, 1<<13)
	b := bigint.Random(rng, 1<<13)
	want := new(big.Int).Mul(a.ToBig(), b.ToBig())
	alg := toom.MustNew(2)
	lay, err := ftparallel.NewLayout(9, 2, 2)
	if err != nil {
		t.Fatal(err)
	}

	plans := []struct {
		name   string
		f, dfs int
		faults []machine.Fault
		golden goldenCounts
	}{
		{"nofault-f1", 1, 0, nil,
			goldenCounts{7947, 268, 25}},
		{"eval-worker", 2, 0,
			[]machine.Fault{{Proc: 4, Phase: ftparallel.PhaseEval}},
			goldenCounts{8283, 399, 32}},
		{"mul-worker", 1, 0,
			[]machine.Fault{{Proc: 4, Phase: ftparallel.PhaseMul}},
			goldenCounts{7318, 268, 25}},
		{"interp-worker", 1, 0,
			[]machine.Fault{{Proc: lay.Worker(1, 2), Phase: ftparallel.PhaseInterp}},
			goldenCounts{7947, 348, 27}},
		{"mixed-f2", 2, 0,
			[]machine.Fault{
				{Proc: 1, Phase: ftparallel.PhaseEval},
				{Proc: 4, Phase: ftparallel.PhaseMul},
			},
			goldenCounts{7654, 399, 32}},
		{"dfs-mul", 1, 1,
			[]machine.Fault{{Proc: 3, Phase: ftparallel.PhaseMul, Hit: 1}},
			goldenCounts{7511, 396, 65}},
		// The recovery paths below were pinned before the coder's encode and
		// repair loops merged: a dead code processor (re-encode), two losses
		// in one column (the 2×2 Vandermonde minor), and a lost product share
		// together with its column's code processor.
		{"eval-code", 2, 0,
			[]machine.Fault{{Proc: lay.LinearCode(0, 1), Phase: ftparallel.PhaseEval}},
			goldenCounts{8235, 399, 32}},
		{"eval-two-in-column", 2, 0,
			[]machine.Fault{
				{Proc: lay.Worker(0, 1), Phase: ftparallel.PhaseEval},
				{Proc: lay.Worker(2, 1), Phase: ftparallel.PhaseEval},
			},
			goldenCounts{8235, 431, 33}},
		{"interp-two-in-column", 2, 0,
			[]machine.Fault{
				{Proc: lay.Worker(0, 2), Phase: ftparallel.PhaseInterp},
				{Proc: lay.Worker(1, 2), Phase: ftparallel.PhaseInterp},
			},
			goldenCounts{8171, 527, 35}},
		{"interp-worker-and-code", 2, 0,
			[]machine.Fault{
				{Proc: lay.Worker(1, 0), Phase: ftparallel.PhaseInterp},
				{Proc: lay.LinearCode(0, 0), Phase: ftparallel.PhaseInterp},
			},
			goldenCounts{8171, 479, 34}},
		{"dfs-eval-worker-and-code", 2, 1,
			[]machine.Fault{
				{Proc: lay.Worker(1, 0), Phase: ftparallel.PhaseEval},
				{Proc: lay.LinearCode(1, 2), Phase: ftparallel.PhaseEval},
			},
			goldenCounts{8162, 563, 80}},
	}

	for _, pl := range plans {
		pl := pl
		t.Run(pl.name, func(t *testing.T) {
			for _, backend := range []machine.Backend{machine.BackendSim, machine.BackendWall} {
				res, err := ftparallel.Multiply(a, b, ftparallel.Options{
					Alg: alg, P: 9, F: pl.f, DFSSteps: pl.dfs, Faults: pl.faults,
					Machine: machine.Config{Backend: backend},
				})
				if err != nil {
					t.Fatalf("%s: %v", backend, err)
				}
				if res.Product.ToBig().Cmp(want) != 0 {
					t.Fatalf("%s: product differs from math/big", backend)
				}
				// The wall backend's counts must match the simulator's
				// (accounting is a backend-independent decorator); the
				// simulator's must match the seed.
				got := goldenCounts{res.Report.F, res.Report.BW, res.Report.L}
				if got != pl.golden {
					t.Errorf("%s: F/BW/L = %d/%d/%d, golden %d/%d/%d",
						backend, got.f, got.bw, got.l,
						pl.golden.f, pl.golden.bw, pl.golden.l)
				}
			}
		})
	}
}

// TestBackToBackRunsAgree runs the same two-fault plan twice in a row on
// each backend. The second run draws the per-pair channels the first one
// returned at Close, and every rank must count exactly what it counted the
// first time (and, on the simulator, end at the same virtual time).
func TestBackToBackRunsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a := bigint.Random(rng, 1<<13)
	b := bigint.Random(rng, 1<<13)
	want := new(big.Int).Mul(a.ToBig(), b.ToBig())
	faults := []machine.Fault{
		{Proc: 1, Phase: ftparallel.PhaseEval},
		{Proc: 3, Phase: ftparallel.PhaseMul, Hit: 1},
	}
	type rankCounts struct {
		flops, sent, recv, msgs, barriers int64
		clock                             float64
	}
	for _, backend := range []machine.Backend{machine.BackendSim, machine.BackendWall} {
		var runs [2][]rankCounts
		for i := range runs {
			res, err := ftparallel.Multiply(a, b, ftparallel.Options{
				Alg: toom.MustNew(2), P: 9, F: 2, DFSSteps: 1, Faults: faults,
				Machine: machine.Config{Backend: backend},
			})
			if err != nil {
				t.Fatalf("%s run %d: %v", backend, i, err)
			}
			if res.Product.ToBig().Cmp(want) != 0 {
				t.Fatalf("%s run %d: product differs from math/big", backend, i)
			}
			for _, st := range res.Report.PerProc {
				c := rankCounts{st.Flops, st.SentWords, st.RecvWords, st.Messages, st.Barriers, 0}
				if backend == machine.BackendSim {
					c.clock = st.Clock
				}
				runs[i] = append(runs[i], c)
			}
		}
		for r := range runs[0] {
			if runs[0][r] != runs[1][r] {
				t.Errorf("%s rank %d: first run %+v, second run %+v", backend, r, runs[0][r], runs[1][r])
			}
		}
	}
}

// TestBackendsAgreeOnPlainParallel pins the fault-free parallel engine the
// same way: identical product on both backends, seed counts on the simulator.
func TestBackendsAgreeOnPlainParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := bigint.Random(rng, 1<<13)
	b := bigint.Random(rng, 1<<13)
	want := new(big.Int).Mul(a.ToBig(), b.ToBig())
	alg := toom.MustNew(2)
	golden := goldenCounts{7691, 160, 12}

	for _, backend := range []machine.Backend{machine.BackendSim, machine.BackendWall} {
		res, err := parallel.Multiply(a, b, parallel.Options{
			Alg: alg, P: 9, Machine: machine.Config{Backend: backend},
		})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if res.Product.ToBig().Cmp(want) != 0 {
			t.Fatalf("%s: product differs from math/big", backend)
		}
		got := goldenCounts{res.Report.F, res.Report.BW, res.Report.L}
		if got != golden {
			t.Errorf("%s: F/BW/L = %d/%d/%d, golden %d/%d/%d",
				backend, got.f, got.bw, got.l, golden.f, golden.bw, golden.l)
		}
	}
}

// matrixCounts is everything the cost model records for one matrix run:
// the critical-path F/BW/BW-in/L, the most barriers any rank crossed, and
// the per-rank Flops summed over all ranks.
type matrixCounts struct {
	f, bw, bwIn, l, barriers, flopsSum int64
}

func matrixCountsOf(rep *machine.Report) matrixCounts {
	c := matrixCounts{f: rep.F, bw: rep.BW, bwIn: rep.BWIn, l: rep.L}
	for _, st := range rep.PerProc {
		c.barriers = max(c.barriers, st.Barriers)
		c.flopsSum += st.Flops
	}
	return c
}

// randSignedMat fills a rows×cols matrix with signed entries of 1–300 bits,
// about one in eight of them zero, so the kernels' zero skips and
// multi-limb accumulations both show in the counts.
func randSignedMat(rng *rand.Rand, rows, cols int) *mat.IntMat {
	m := mat.NewIntMat(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Intn(8) == 0 {
				continue
			}
			v := bigint.Random(rng, 1+rng.Intn(300))
			if rng.Intn(2) == 0 {
				v = v.Neg()
			}
			m.Set(i, j, v)
		}
	}
	return m
}

// TestMatrixSchemesPinnedCounts pins the matrix tier's cost accounting to
// golden values captured from the Int-based tile kernel (commit f3e9925,
// before it moved onto pooled accumulators): every scheme, fault-free and under one eval-phase and one
// mul-phase fail-stop (the plain scheme has no recovery and runs
// fault-free only), at an even and an odd rectangular shape, on both
// backends. Agreement between the backends alone would not catch a kernel
// that charged differently on both.
func TestMatrixSchemesPinnedCounts(t *testing.T) {
	evalFault := func(proc int) []machine.Fault {
		return []machine.Fault{{Proc: proc, Phase: ftengine.PhaseEval}}
	}
	mulFault := func(proc int) []machine.Fault {
		return []machine.Fault{{Proc: proc, Phase: ftengine.PhaseMul}}
	}
	type plan struct {
		name   string
		scheme ftmatmul.Scheme
		faults []machine.Fault
	}
	plans := []plan{
		{"plain", ftmatmul.SchemePlain, nil},
		{"repl", ftmatmul.SchemeReplicated, nil},
		{"repl-eval", ftmatmul.SchemeReplicated, evalFault(2)},
		{"repl-mul", ftmatmul.SchemeReplicated, mulFault(9)},
		{"twoalg", ftmatmul.SchemeTwoAlg, nil},
		{"twoalg-eval", ftmatmul.SchemeTwoAlg, evalFault(5)},
		{"twoalg-mul", ftmatmul.SchemeTwoAlg, mulFault(3)},
	}
	shapes := []struct {
		name    string
		r, k, c int
		seed    int64
		golden  map[string]matrixCounts
	}{
		{"8x8x8", 8, 8, 8, 41, map[string]matrixCounts{
			"plain":       {978, 6, 0, 6, 2, 6277},
			"repl":        {978, 8, 0, 8, 2, 12554},
			"repl-eval":   {978, 87, 79, 9, 2, 12554},
			"repl-mul":    {978, 8, 0, 8, 2, 12554},
			"twoalg":      {1457, 236, 177, 14, 2, 14686},
			"twoalg-eval": {1457, 245, 177, 14, 2, 14686},
			"twoalg-mul":  {1457, 236, 177, 14, 2, 14686},
		}},
		{"5x7x3", 5, 7, 3, 42, map[string]matrixCounts{
			"plain":       {574, 6, 0, 6, 2, 1096},
			"repl":        {574, 8, 0, 8, 2, 2192},
			"repl-eval":   {574, 58, 50, 9, 2, 2192},
			"repl-mul":    {574, 8, 0, 8, 2, 2192},
			"twoalg":      {756, 203, 117, 14, 2, 3241},
			"twoalg-eval": {756, 207, 117, 14, 2, 3241},
			"twoalg-mul":  {756, 203, 117, 14, 2, 3241},
		}},
	}
	for _, sh := range shapes {
		rng := rand.New(rand.NewSource(sh.seed))
		a := randSignedMat(rng, sh.r, sh.k)
		b := randSignedMat(rng, sh.k, sh.c)
		want := a.MulNaive(b)
		for _, pl := range plans {
			t.Run(sh.name+"/"+pl.name, func(t *testing.T) {
				for _, backend := range []machine.Backend{machine.BackendSim, machine.BackendWall} {
					res, err := ftmatmul.Multiply(a, b, ftmatmul.Options{
						Machine: machine.Config{Backend: backend},
						Faults:  pl.faults,
						Scheme:  pl.scheme,
					})
					if err != nil {
						t.Fatalf("%s: %v", backend, err)
					}
					if !res.C.Equal(want) {
						t.Fatalf("%s: product differs from the naive product", backend)
					}
					if got, golden := matrixCountsOf(res.Report), sh.golden[pl.name]; got != golden {
						t.Errorf("%s: counts %+v, golden %+v", backend, got, golden)
					}
				}
			})
		}
	}
}

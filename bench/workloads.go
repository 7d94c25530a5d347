package main

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"

	"repro"
	"repro/internal/bigint"
	"repro/internal/ftmatmul"
	"repro/internal/ftparallel"
	"repro/internal/machine"
	"repro/internal/mat"
	"repro/internal/toom"
)

// errWrong marks an operation that returned a product different from the
// math/big reference. It counts as a failed operation, like an error.
var errWrong = errors.New("wrong product")

// toomShape is one configuration of the fault-tolerant Toom-Cook multiply.
type toomShape struct {
	bits, k, p, f, dfs int
	backend            machine.Backend
}

// The shapes behind the workloads and the probes that borrow them. clean is
// the paper's Table-1 FT row; faults is the Table-2 row (one DFS step) with
// f = 2 on the wall-clock backend.
var (
	cleanShape  = toomShape{bits: 1 << 16, k: 2, p: 9, f: 1, dfs: 0, backend: machine.BackendSim}
	faultsShape = toomShape{bits: 1 << 16, k: 2, p: 9, f: 2, dfs: 1, backend: machine.BackendWall}
)

const (
	matDim    = 64      // ft_matmul_faults matrix dimension
	matBits   = 256     // entry magnitude bound in bits
	nttBits   = 1 << 20 // seq_mul_ntt operand size
	planCycle = 64      // ft_toom_faults plan-cycle length
	// toomPairs operand pairs per Toom workload, used in turn: the leaf
	// recursion depth depends on the evaluated operands' exact lengths, so
	// a single pair would tie the metrics to one seed's luck.
	toomPairs  = 8
	matmulRank = 15 // ranks of the two-algorithm matmul scheme
)

// workload is one benchmark workload: how to build its inputs from a seed.
type workload struct {
	name    string
	prepare func(seed int64) (*instance, error)
}

// instance holds one workload's generated inputs. op runs operation i
// through the public ftmul API and verifies the product; traced runs the
// same operation through the internal entry point that returns the run's
// Result, for the per-layer counts.
type instance struct {
	// cycle is how many ops pass before the inputs and fault plans repeat;
	// a whole number of cycles makes the counts repeat exactly.
	cycle  int
	op     func(i int) error
	traced func(i int) (opCounts, error)
}

// opCounts is what one traced operation reports through Result/Report.
type opCounts struct {
	planned   int             // faults in the op's plan, set even on error
	rep       *machine.Report // nil for the sequential workload
	recovered int
	dead      int
	// modelTime is Report.Time on the simulator, where it is the modelled
	// runtime; zero on the wall backend, where Time is elapsed seconds.
	modelTime float64
}

var workloads = []workload{
	{name: "ft_toom_clean", prepare: prepareToomClean},
	{name: "ft_toom_faults", prepare: prepareToomFaults},
	{name: "ft_matmul_faults", prepare: prepareMatmul},
	{name: "seq_mul_ntt", prepare: prepareNTT},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// operands returns n seeded pairs of operands of exactly bits bits.
func operands(seed int64, bits, n int) [][2]*big.Int {
	rng := rand.New(rand.NewSource(seed))
	out := make([][2]*big.Int, n)
	for i := range out {
		out[i] = [2]*big.Int{bigint.Random(rng, bits).ToBig(), bigint.Random(rng, bits).ToBig()}
	}
	return out
}

func prepareToomClean(seed int64) (*instance, error) {
	return prepareToom(cleanShape, seed, [][]ftmul.Fault{nil})
}

func prepareToomFaults(seed int64) (*instance, error) {
	s := faultsShape
	lay, err := ftparallel.NewLayout(s.p, s.k, s.f)
	if err != nil {
		return nil, err
	}
	return prepareToom(s, seed, toomFaultCycle(seed, lay.Total(), s.f, 2*s.k-1))
}

// toomFaultCycle draws the ft_toom_faults plan cycle: each plan has 1 to f
// fail-stops on distinct ranks, at a random phase, and — for the mul and
// interp barriers, which every DFS sub-problem crosses — at any of the
// subProblems hits. The eval barrier is crossed once per run.
func toomFaultCycle(seed int64, ranks, f, subProblems int) [][]ftmul.Fault {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	phases := []string{ftmul.PhaseEval, ftmul.PhaseMul, ftmul.PhaseInterp}
	cycle := make([][]ftmul.Fault, planCycle)
	for i := range cycle {
		n := 1 + rng.Intn(f)
		used := map[int]bool{}
		for len(cycle[i]) < n {
			proc := rng.Intn(ranks)
			if used[proc] {
				continue
			}
			used[proc] = true
			ph := phases[rng.Intn(len(phases))]
			hit := 0
			if ph != ftmul.PhaseEval {
				hit = rng.Intn(subProblems)
			}
			cycle[i] = append(cycle[i], ftmul.Fault{Proc: proc, Phase: ph, Hit: hit})
		}
	}
	return cycle
}

func prepareToom(s toomShape, seed int64, plans [][]ftmul.Fault) (*instance, error) {
	pairs := operands(seed, s.bits, toomPairs)
	want := make([]*big.Int, len(pairs))
	in := make([][2]bigint.Int, len(pairs))
	for i, p := range pairs {
		want[i] = new(big.Int).Mul(p[0], p[1])
		in[i] = [2]bigint.Int{bigint.FromBig(p[0]), bigint.FromBig(p[1])}
	}
	cfg := ftmul.ClusterConfig{P: s.p, DFSSteps: s.dfs, Backend: string(s.backend)}
	alg, err := toom.New(s.k)
	if err != nil {
		return nil, err
	}
	return &instance{
		cycle: len(plans) * len(pairs) / gcd(len(plans), len(pairs)),
		op: func(i int) error {
			p := pairs[i%len(pairs)]
			got, _, err := ftmul.MulFaultTolerant(p[0], p[1], s.k, s.f, cfg, plans[i%len(plans)])
			if err != nil {
				return err
			}
			if got.Cmp(want[i%len(pairs)]) != 0 {
				return errWrong
			}
			return nil
		},
		traced: func(i int) (opCounts, error) {
			plan := plans[i%len(plans)]
			c := opCounts{planned: len(plan)}
			res, err := ftparallel.Multiply(in[i%len(in)][0], in[i%len(in)][1], ftparallel.Options{
				Alg: alg, P: s.p, F: s.f, DFSSteps: s.dfs,
				Machine: machine.Config{Backend: s.backend},
				Faults:  machineFaults(plan),
			})
			if err != nil {
				return c, err
			}
			if res.Product.ToBig().Cmp(want[i%len(pairs)]) != 0 {
				return c, errWrong
			}
			c.rep, c.recovered, c.dead = res.Report, res.Recovered, len(res.DeadColumns)
			if s.backend == machine.BackendSim {
				c.modelTime = res.Report.Time
			}
			return c, nil
		},
	}, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func machineFaults(plan []ftmul.Fault) []machine.Fault {
	out := make([]machine.Fault, len(plan))
	for i, f := range plan {
		out[i] = machine.Fault{Proc: f.Proc, Phase: f.Phase, Hit: f.Hit}
	}
	return out
}

// matmulFaultCycle is every single fail-stop plan of the two-algorithm
// scheme (each rank at the eval and at the mul barrier) in a seeded order.
func matmulFaultCycle(seed int64) [][]ftmul.Fault {
	rng := rand.New(rand.NewSource(seed ^ 0x3a7))
	phases := []string{ftmul.PhaseEval, ftmul.PhaseMul}
	cycle := make([][]ftmul.Fault, 0, matmulRank*len(phases))
	for _, idx := range rng.Perm(matmulRank * len(phases)) {
		cycle = append(cycle, []ftmul.Fault{{Proc: idx / len(phases), Phase: phases[idx%len(phases)]}})
	}
	return cycle
}

func randMatrix(rng *rand.Rand) [][]*big.Int {
	lim := new(big.Int).Lsh(big.NewInt(1), matBits)
	m := make([][]*big.Int, matDim)
	for i := range m {
		m[i] = make([]*big.Int, matDim)
		for j := range m[i] {
			v := new(big.Int).Rand(rng, lim)
			if rng.Intn(2) == 0 {
				v.Neg(v)
			}
			m[i][j] = v
		}
	}
	return m
}

func naiveMatMul(a, b [][]*big.Int) [][]*big.Int {
	out := make([][]*big.Int, len(a))
	t := new(big.Int)
	for i := range out {
		out[i] = make([]*big.Int, len(b[0]))
		for j := range out[i] {
			acc := new(big.Int)
			for k := range b {
				acc.Add(acc, t.Mul(a[i][k], b[k][j]))
			}
			out[i][j] = acc
		}
	}
	return out
}

func toIntMat(rows [][]*big.Int) *mat.IntMat {
	m := mat.NewIntMat(len(rows), len(rows[0]))
	for i, row := range rows {
		for j, v := range row {
			m.Set(i, j, bigint.FromBig(v))
		}
	}
	return m
}

func prepareMatmul(seed int64) (*instance, error) {
	rng := rand.New(rand.NewSource(seed))
	a, b := randMatrix(rng), randMatrix(rng)
	want := naiveMatMul(a, b)
	ma, mb := toIntMat(a), toIntMat(b)
	plans := matmulFaultCycle(seed)
	matEqual := func(at func(i, j int) *big.Int) bool {
		for i := range want {
			for j := range want[i] {
				if at(i, j).Cmp(want[i][j]) != 0 {
					return false
				}
			}
		}
		return true
	}
	return &instance{
		cycle: len(plans),
		op: func(i int) error {
			got, _, err := ftmul.MulMatrixFaultTolerant(a, b, ftmul.ClusterConfig{}, plans[i%len(plans)])
			if err != nil {
				return err
			}
			if !matEqual(func(r, c int) *big.Int { return got[r][c] }) {
				return errWrong
			}
			return nil
		},
		traced: func(i int) (opCounts, error) {
			plan := plans[i%len(plans)]
			c := opCounts{planned: len(plan)}
			res, err := ftmatmul.Multiply(ma, mb, ftmatmul.Options{Faults: machineFaults(plan)})
			if err != nil {
				return c, err
			}
			if !matEqual(func(r, col int) *big.Int { return res.C.At(r, col).ToBig() }) {
				return c, errWrong
			}
			c.rep, c.recovered, c.dead, c.modelTime = res.Report, res.Recovered, len(res.Dead), res.Report.Time
			return c, nil
		},
	}, nil
}

func prepareNTT(seed int64) (*instance, error) {
	p := operands(seed, nttBits, 1)[0]
	a, b := p[0], p[1]
	want := new(big.Int).Mul(a, b)
	check := func(got *big.Int) error {
		if got.Cmp(want) != 0 {
			return errWrong
		}
		return nil
	}
	return &instance{
		cycle: 1,
		op:    func(int) error { return check(ftmul.Mul(a, b)) },
		traced: func(int) (opCounts, error) {
			return opCounts{}, check(ftmul.Mul(a, b))
		},
	}, nil
}

package ftparallel

import (
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/toom"
)

// The replays below run the smallest fault-tolerant grid (P = 3, k = 2,
// f = 1: three workers, three linear-code ranks and one polynomial-code
// rank) under every plan its protocol can meet: every single fail-stop at
// every barrier crossing, and every on-time/late pattern of the straggler
// columns. The machine itself rejects tag mismatches, out-of-range ranks,
// barrier-phase mismatches, traffic after Run and undelivered messages, and
// RecvTimeout turns a deadlock into an error, so each replay checks the
// protocol as well as the product.

// replayTimeout bounds every receive and barrier of a replay, so that a
// deadlocked plan fails in seconds instead of the default 30.
const replayTimeout = 2 * time.Second

// TestSingleFaultReplays: at P = 3 with no DFS level and with one, every
// rank failing at every crossing of every barrier (eval once; mul and
// interp once per DFS sub-problem, (2k-1)^dfs times) yields the exact
// product with exactly that one fault fired, on both backends. A fault one
// hit past the last crossing fires nothing, so the plans cover every
// crossing.
func TestSingleFaultReplays(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a, b := randOperand(rng, 1<<10), randOperand(rng, 1<<10)
	want := new(big.Int).Mul(a.ToBig(), b.ToBig())
	const p, k, f = 3, 2, 1
	lay, err := NewLayout(p, k, f)
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []machine.Backend{machine.BackendSim, machine.BackendWall} {
		for dfs := 0; dfs <= 1; dfs++ {
			t.Run(fmt.Sprintf("%s/dfs=%d", backend, dfs), func(t *testing.T) {
				subproblems := 1
				for range dfs {
					subproblems *= lay.Cols()
				}
				for _, phase := range []string{PhaseEval, PhaseMul, PhaseInterp} {
					hits := subproblems
					if phase == PhaseEval {
						hits = 1
					}
					for hit := 0; hit <= hits; hit++ {
						for proc := 0; proc < lay.Total(); proc++ {
							fault := machine.Fault{Proc: proc, Phase: phase, Hit: hit}
							res, err := Multiply(a, b, Options{
								Alg: toom.MustNew(k), P: p, F: f, DFSSteps: dfs,
								Machine: machine.Config{Backend: backend, RecvTimeout: replayTimeout},
								Faults:  []machine.Fault{fault},
							})
							if err != nil {
								t.Fatalf("plan %+v: %v", fault, err)
							}
							if res.Product.ToBig().Cmp(want) != 0 {
								t.Fatalf("plan %+v: wrong product", fault)
							}
							wantFired := 1
							if hit == hits {
								wantFired = 0 // past the last crossing
							}
							if fired := len(res.Report.Faults); fired != wantFired {
								t.Fatalf("plan %+v fired %d faults, want %d", fault, fired, wantFired)
							}
						}
					}
				}
			})
		}
	}
}

// TestStragglerLatePatterns: at P = 3 the decider's row has three other
// columns, so 8 patterns of on-time and late columns. With at most one late
// column the product is exact and DeadColumns names the late one; with two
// or more, f = 1 cannot absorb them and the run fails with the straggler
// abort, the decider's or a row-mate's, never another error or a hang.
func TestStragglerLatePatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	a, b := randOperand(rng, 1<<14), randOperand(rng, 1<<14)
	want := new(big.Int).Mul(a.ToBig(), b.ToBig())
	const p, k, f = 3, 2, 1
	lay, err := NewLayout(p, k, f)
	if err != nil {
		t.Fatal(err)
	}
	for late := 0; late < 1<<(lay.NumColumns()-1); late++ {
		speeds := make([]float64, lay.Total())
		var lateCols []int
		for c := 1; c < lay.NumColumns(); c++ {
			if late&(1<<(c-1)) != 0 {
				lateCols = append(lateCols, c)
				for r := 0; r < lay.GPrime; r++ {
					speeds[lay.ColumnRank(r, c)] = 50
				}
			}
		}
		t.Run(fmt.Sprintf("late=%v", lateCols), func(t *testing.T) {
			res, err := Multiply(a, b, Options{
				Alg: toom.MustNew(k), P: p, F: f,
				StragglerSlack: 50000,
				Machine:        machine.Config{SpeedFactors: speeds, RecvTimeout: replayTimeout},
			})
			if len(lateCols) > f {
				if err == nil || !strings.Contains(err.Error(), "straggler slack") {
					t.Fatalf("err = %v, want the straggler abort", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if res.Product.ToBig().Cmp(want) != 0 {
				t.Fatal("wrong product")
			}
			if !slices.Equal(res.DeadColumns, lateCols) {
				t.Errorf("dropped columns %v, want the late ones %v", res.DeadColumns, lateCols)
			}
		})
	}
}

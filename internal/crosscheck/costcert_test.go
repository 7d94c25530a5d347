// costcert_test.go pins the paper's cost table (table_test.go) to the
// machine's runtime accounting on the same worlds, so a drift on either
// side breaks a test. S (sent words), R (received words) and L (messages)
// must agree exactly; the table's F is a worst-case word-operation bound
// (the recurrence never takes the structural-zero shortcuts the kernels
// do), so it must dominate the runtime F without falling to zero.
package crosscheck

import (
	"math/big"
	"testing"

	"repro/internal/bigint"
	"repro/internal/collective"
	"repro/internal/ftparallel"
	"repro/internal/machine"
	"repro/internal/parallel"
	"repro/internal/toom"
)

// maxRecvWords extracts the R counter machine.Report does not aggregate.
func maxRecvWords(rep *machine.Report) int64 {
	var r int64
	for _, st := range rep.PerProc {
		if st.RecvWords > r {
			r = st.RecvWords
		}
	}
	return r
}

// unitPayload is a W-entry vector of single-word digits, matching the
// unit-word model the closed forms count in.
func unitPayload(w int64) machine.Ints {
	out := make(machine.Ints, w)
	for i := range out {
		out[i] = bigint.FromInt64(1)
	}
	return out
}

// TestCollectiveCostsMatchRuntime replays Broadcast and Reduce on the real
// simulated machine for every group of 2 to 5 ranks, every root and a grid
// of payload sizes, and checks all four counters against the Table 1
// closed forms, exactly.
func TestCollectiveCostsMatchRuntime(t *testing.T) {
	for g := int64(2); g <= 5; g++ {
		group := make(collective.Group, g)
		for i := range group {
			group[i] = i
		}
		for root := range int(g) {
			for _, w := range []int64{1, 2, 3, 5, 8} {
				run := func(name string, op func(p *machine.Proc) error) *machine.Report {
					t.Helper()
					m, err := machine.New(machine.Config{P: int(g)}, nil)
					if err != nil {
						t.Fatalf("g=%d root=%d W=%d %s: machine: %v", g, root, w, name, err)
					}
					rep, err := m.Run(op)
					if err != nil {
						t.Fatalf("g=%d root=%d W=%d %s: run: %v", g, root, w, name, err)
					}
					return rep
				}
				check := func(name string, rep *machine.Report, exp Counts) {
					t.Helper()
					got := Counts{F: rep.F, S: rep.BW, R: maxRecvWords(rep), L: rep.L}
					if got != exp {
						t.Errorf("g=%d root=%d W=%d %s: runtime %+v, closed form %+v", g, root, w, name, got, exp)
					}
				}

				rep := run("Broadcast", func(p *machine.Proc) error {
					var v machine.Ints
					if p.ID() == root {
						v = unitPayload(w)
					}
					_, err := collective.Broadcast(p, group, root, "bc", v)
					return err
				})
				check("Broadcast", rep, expectedBroadcast(g, w))

				rep = run("Reduce", func(p *machine.Proc) error {
					_, err := collective.Reduce(p, group, root, "rd", unitPayload(w))
					return err
				})
				check("Reduce", rep, expectedReduce(g, w))
			}
		}
	}
}

// allOnes returns the Digits-bit all-ones integer, so the plan derives
// shift = 1 and every digit is a single 1-bit word — the unit-word model
// the recurrences count in.
func allOnes(digits int) bigint.Int {
	v := new(big.Int).Lsh(big.NewInt(1), uint(digits))
	v.Sub(v, big.NewInt(1))
	return bigint.FromBig(v)
}

// TestWorldCostsMatchRuntime runs both multiplication tiers on every table
// world and compares the recurrence values against the runtime accounting.
func TestWorldCostsMatchRuntime(t *testing.T) {
	for _, w := range Worlds() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			a := allOnes(w.Digits)
			var rep *machine.Report
			if w.FT {
				res, err := ftparallel.Multiply(a, a, ftparallel.Options{
					Alg: toom.MustNew(w.K), P: w.P, F: w.Faults,
					DFSSteps: w.DFSSteps,
				})
				if err != nil {
					t.Fatalf("ftparallel.Multiply: %v", err)
				}
				rep = res.Report
			} else {
				res, err := parallel.Multiply(a, a, parallel.Options{
					Alg: toom.MustNew(w.K), P: w.P,
					DFSSteps: w.DFSSteps,
				})
				if err != nil {
					t.Fatalf("parallel.Multiply: %v", err)
				}
				if res.Digits != w.Digits || res.Shift != 1 {
					t.Fatalf("plan derived digits=%d shift=%d, world wants digits=%d shift=1",
						res.Digits, res.Shift, w.Digits)
				}
				rep = res.Report
			}
			exp := w.Expected
			if rep.BW != exp.S {
				t.Errorf("sent words: runtime %d, recurrence %d", rep.BW, exp.S)
			}
			if r := maxRecvWords(rep); r != exp.R {
				t.Errorf("received words: runtime %d, recurrence %d", r, exp.R)
			}
			if rep.L != exp.L {
				t.Errorf("messages: runtime %d, recurrence %d", rep.L, exp.L)
			}
			if rep.F <= 0 || exp.F < rep.F {
				t.Errorf("word ops: runtime %d must be positive and dominated by the static bound %d", rep.F, exp.F)
			}
		})
	}
}

// costcert_test.go closes the three-way cost-certification loop:
//
//	paper table  ==  abstract interpretation  ==  runtime accounting
//
// costbound's own tests pin interpreter == table over the real ASTs; this
// file pins table == the machine's runtime Stats on the same worlds, so
// a drift in any one of the three representations breaks a test somewhere.
// S (sent words), R (received words) and L (messages) must agree exactly;
// the static F is a worst-case word-operation bound (the recurrence never
// takes the structural-zero shortcuts the kernels do), so it must dominate
// the runtime F without falling to zero.
package crosscheck

import (
	"math/big"
	"testing"

	"repro/internal/analysis/costbound"
	"repro/internal/analysis/framework"
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
// simulated machine over the costbound witness grid and checks all four
// counters against the Table 1 closed forms, exactly.
func TestCollectiveCostsMatchRuntime(t *testing.T) {
	for g := int64(2); g <= 5; g++ {
		group := make(collective.Group, g)
		for i := range group {
			group[i] = i
		}
		for _, w := range []int64{1, 2, 3, 5, 8} {
			run := func(name string, op func(p *machine.Proc) error) *machine.Report {
				t.Helper()
				m, err := machine.New(machine.Config{P: int(g)}, nil)
				if err != nil {
					t.Fatalf("g=%d W=%d %s: machine: %v", g, w, name, err)
				}
				rep, err := m.Run(op)
				if err != nil {
					t.Fatalf("g=%d W=%d %s: run: %v", g, w, name, err)
				}
				return rep
			}
			check := func(name string, rep *machine.Report, exp costbound.Counts) {
				t.Helper()
				got := costbound.Counts{F: rep.F, S: rep.BW, R: maxRecvWords(rep), L: rep.L}
				if got != exp {
					t.Errorf("g=%d W=%d %s: runtime %+v, closed form %+v", g, w, name, got, exp)
				}
			}

			rep := run("Broadcast", func(p *machine.Proc) error {
				var v machine.Ints
				if p.ID() == 0 {
					v = unitPayload(w)
				}
				_, err := collective.Broadcast(p, group, 0, "bc", v)
				return err
			})
			check("Broadcast", rep, costbound.ExpectedBroadcast(g, w))

			rep = run("Reduce", func(p *machine.Proc) error {
				_, err := collective.Reduce(p, group, 0, "rd", unitPayload(w))
				return err
			})
			check("Reduce", rep, costbound.ExpectedReduce(g, w))
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

// TestWorldCostsMatchRuntime runs both multiplication tiers on every
// certified costbound world and compares the recurrence values (already
// proven equal to the interpreter's derivation by costbound's tests)
// against the runtime accounting.
func TestWorldCostsMatchRuntime(t *testing.T) {
	for _, w := range costbound.Worlds() {
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

// TestWorldDerivationMatchesTable re-derives every world through the
// abstract interpreter from inside this package, making the three-way
// agreement explicit rather than transitive across test suites.
func TestWorldDerivationMatchesTable(t *testing.T) {
	pkgs, err := framework.LoadCached("../..",
		"./internal/collective", "./internal/parallel", "./internal/ftparallel",
		"./internal/ftengine")
	if err != nil {
		t.Fatalf("loading tiers: %v", err)
	}
	sums := framework.ComputeSummaries(pkgs)
	byPath := map[string]*framework.Package{}
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	for _, w := range costbound.Worlds() {
		path := "repro/internal/parallel"
		if w.FT {
			path = "repro/internal/ftparallel"
		}
		pkg := byPath[path]
		if pkg == nil {
			t.Fatalf("package %s not loaded", path)
		}
		got, err := costbound.DeriveWorldCounts(sums, pkg, w)
		if err != nil {
			t.Errorf("world %s: %v", w.Name, err)
			continue
		}
		if got != w.Expected {
			t.Errorf("world %s: interpreter derives %+v, recurrence says %+v", w.Name, got, w.Expected)
		}
	}
}

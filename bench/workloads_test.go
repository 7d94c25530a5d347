package main

import (
	"reflect"
	"testing"

	"repro"
	"repro/internal/ftparallel"
)

func TestToomFaultCycle(t *testing.T) {
	s := faultsShape
	lay, err := ftparallel.NewLayout(s.p, s.k, s.f)
	if err != nil {
		t.Fatal(err)
	}
	sub := 2*s.k - 1
	a := toomFaultCycle(7, lay.Total(), s.f, sub)
	if !reflect.DeepEqual(a, toomFaultCycle(7, lay.Total(), s.f, sub)) {
		t.Fatal("same seed gave different plan cycles")
	}
	if reflect.DeepEqual(a, toomFaultCycle(8, lay.Total(), s.f, sub)) {
		t.Fatal("seeds 7 and 8 gave the same plan cycle")
	}
	if len(a) != planCycle {
		t.Fatalf("cycle length %d, want %d", len(a), planCycle)
	}
	sizes := map[int]int{}
	for i, plan := range a {
		sizes[len(plan)]++
		if len(plan) < 1 || len(plan) > s.f {
			t.Errorf("plan %d has %d faults, want 1..%d", i, len(plan), s.f)
		}
		ranks := map[int]bool{}
		for _, f := range plan {
			if ranks[f.Proc] {
				t.Errorf("plan %d repeats rank %d", i, f.Proc)
			}
			ranks[f.Proc] = true
			if f.Proc < 0 || f.Proc >= lay.Total() {
				t.Errorf("plan %d: rank %d outside [0,%d)", i, f.Proc, lay.Total())
			}
			switch f.Phase {
			case ftmul.PhaseEval:
				if f.Hit != 0 {
					t.Errorf("plan %d: eval fault at hit %d; the eval barrier is crossed once", i, f.Hit)
				}
			case ftmul.PhaseMul, ftmul.PhaseInterp:
				if f.Hit < 0 || f.Hit >= sub {
					t.Errorf("plan %d: hit %d outside the %d DFS sub-problems", i, f.Hit, sub)
				}
			default:
				t.Errorf("plan %d: unknown phase %q", i, f.Phase)
			}
		}
	}
	if sizes[1] == 0 || sizes[s.f] == 0 {
		t.Errorf("plan sizes %v: want both single and %d-fault plans", sizes, s.f)
	}
}

func TestMatmulFaultCycle(t *testing.T) {
	a := matmulFaultCycle(3)
	if !reflect.DeepEqual(a, matmulFaultCycle(3)) {
		t.Fatal("same seed gave different plan cycles")
	}
	if len(a) != 2*matmulRank {
		t.Fatalf("cycle length %d, want %d", len(a), 2*matmulRank)
	}
	seen := map[ftmul.Fault]bool{}
	for i, plan := range a {
		if len(plan) != 1 {
			t.Fatalf("plan %d has %d faults, want 1", i, len(plan))
		}
		seen[plan[0]] = true
	}
	if len(seen) != 2*matmulRank {
		t.Errorf("%d distinct plans, want every rank at eval and at mul", len(seen))
	}
}

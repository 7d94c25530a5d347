package protomc

import (
	"go/token"
	"strings"
	"testing"

	"repro/internal/analysis/framework"
)

// unitWorld builds a world whose processors are driven directly by a Go
// closure over the transport verbs — no interpretation involved — so the
// scheduler, fault injector, and property checks can be tested in
// isolation.
func unitWorld(n int, body func(mp *modelProc)) *world {
	return &world{
		name: "unit",
		n:    n,
		run: func(_ *framework.Eval, mp *modelProc) Value {
			body(mp)
			return framework.Nil{}
		},
	}
}

func findingMsgs(fs []Finding) string {
	var out []string
	for _, f := range fs {
		out = append(out, f.Msg)
	}
	return strings.Join(out, "\n")
}

func TestCheckerCleanPingPong(t *testing.T) {
	w := unitWorld(2, func(mp *modelProc) {
		if mp.id == 0 {
			mp.opSend(1, "ping", framework.KnownInt(1), token.NoPos)
			mp.opRecv(1, "pong", token.NoPos)
		} else {
			mp.opRecv(0, "ping", token.NoPos)
			mp.opSend(0, "pong", framework.KnownInt(2), token.NoPos)
		}
	})
	fs, _ := explore(nil, w)
	if len(fs) != 0 {
		t.Fatalf("clean ping-pong produced findings:\n%s", findingMsgs(fs))
	}
}

func TestCheckerDeadlock(t *testing.T) {
	w := unitWorld(2, func(mp *modelProc) {
		// Both wait first: classic cyclic wait.
		mp.opRecv(1-mp.id, "m", token.NoPos)
		mp.opSend(1-mp.id, "m", framework.KnownInt(1), token.NoPos)
	})
	fs, _ := explore(nil, w)
	if len(fs) == 0 || !strings.Contains(fs[0].Msg, "deadlock") {
		t.Fatalf("cyclic wait not reported as deadlock:\n%s", findingMsgs(fs))
	}
	if len(fs[0].Trace) == 0 {
		t.Fatalf("deadlock finding carries no trace")
	}
}

func TestCheckerOrphanMessage(t *testing.T) {
	w := unitWorld(2, func(mp *modelProc) {
		if mp.id == 0 {
			mp.opSend(1, "extra", framework.KnownInt(1), token.NoPos)
		}
	})
	fs, _ := explore(nil, w)
	if len(fs) == 0 || !strings.Contains(fs[0].Msg, "never received") {
		t.Fatalf("undrained queue not reported as orphan:\n%s", findingMsgs(fs))
	}
}

func TestCheckerSendToTerminated(t *testing.T) {
	w := unitWorld(2, func(mp *modelProc) {
		if mp.id == 1 {
			// p0 exits immediately; by the time p1 runs, its peer is gone.
			mp.opRecv(0, "sync", token.NoPos)
		}
	})
	// p1 blocks on a receive that can never be satisfied -> deadlock, since
	// p0 exited cleanly without erroring.
	fs, _ := explore(nil, w)
	if len(fs) == 0 || !strings.Contains(fs[0].Msg, "deadlock") {
		t.Fatalf("wait on exited peer not reported:\n%s", findingMsgs(fs))
	}
}

func TestCheckerOutOfWorldSend(t *testing.T) {
	w := unitWorld(2, func(mp *modelProc) {
		if mp.id == 0 {
			mp.opSend(7, "m", framework.KnownInt(1), token.NoPos)
		}
	})
	fs, _ := explore(nil, w)
	if len(fs) == 0 || !strings.Contains(fs[0].Msg, "outside the world") {
		t.Fatalf("out-of-world send not reported:\n%s", findingMsgs(fs))
	}
}

func TestCheckerBarrierPhaseMismatch(t *testing.T) {
	w := unitWorld(2, func(mp *modelProc) {
		if mp.id == 0 {
			mp.opBarrier("eval", token.NoPos)
		} else {
			mp.opBarrier("mul", token.NoPos)
		}
	})
	fs, _ := explore(nil, w)
	if len(fs) == 0 || !strings.Contains(fs[0].Msg, "barrier phase mismatch") {
		t.Fatalf("phase mismatch not reported:\n%s", findingMsgs(fs))
	}
}

// TestCheckerCrossingsCensus pins the fault-plan enumeration domain: one
// crossing per (proc, phase, hit) of the fault-free run.
func TestCheckerCrossingsCensus(t *testing.T) {
	w := unitWorld(3, func(mp *modelProc) {
		mp.opBarrier("eval", token.NoPos)
		mp.opBarrier("eval", token.NoPos)
	})
	fs, crossings := explore(nil, w)
	if len(fs) != 0 {
		t.Fatalf("clean barrier pair produced findings:\n%s", findingMsgs(fs))
	}
	if len(crossings) != 6 {
		t.Fatalf("expected 6 crossings (3 procs x 2 hits), got %d: %v", len(crossings), crossings)
	}
	hits := map[string]int{}
	for _, c := range crossings {
		if c.Phase != "eval" {
			t.Errorf("unexpected phase %q", c.Phase)
		}
		hits[c.String()]++
	}
	for k, n := range hits {
		if n != 1 {
			t.Errorf("crossing %s recorded %d times", k, n)
		}
	}
}

// TestCheckerFaultEventDelivery pins the fail-stop semantics: the victim's
// replacement continues at the same rank with a wiped KV store and an
// incremented fault count, and every participant observes the event.
func TestCheckerFaultEventDelivery(t *testing.T) {
	events := make([]int, 3)
	faults := make([]int, 3)
	w := unitWorld(3, func(mp *modelProc) {
		ev := mp.opBarrier("eval", token.NoPos)
		events[mp.id] = len(ev.(*framework.Slice).Elems)
		faults[mp.id] = mp.faultCount
	})
	w.plan = []faultSpec{{Proc: 1, Phase: "eval", Hit: 0}}
	w.faultTolerant = true
	fs, _ := explore(nil, w)
	if len(fs) != 0 {
		t.Fatalf("tolerated fault produced findings:\n%s", findingMsgs(fs))
	}
	for id, n := range events {
		if n != 1 {
			t.Errorf("p%d observed %d fault events, want 1", id, n)
		}
	}
	if faults[1] != 1 || faults[0] != 0 || faults[2] != 0 {
		t.Errorf("fault counts %v, want [0 1 0]", faults)
	}
}

func TestCheckerStaleCrossFaultDelivery(t *testing.T) {
	w := unitWorld(2, func(mp *modelProc) {
		if mp.id == 0 {
			mp.opSend(1, "ckpt", framework.KnownInt(7), token.NoPos)
		}
		mp.opBarrier("sync", token.NoPos)
		if mp.id == 1 {
			mp.opRecv(0, "ckpt", token.NoPos)
		}
	})
	w.plan = []faultSpec{{Proc: 1, Phase: "sync", Hit: 0}}
	fs, _ := explore(nil, w)
	if len(fs) == 0 || !strings.Contains(fs[0].Msg, "sent to its predecessor") {
		t.Fatalf("stale cross-fault delivery not reported:\n%s", findingMsgs(fs))
	}
}

func TestCheckerFaultTolerantAbortIsFinding(t *testing.T) {
	w := &world{
		name: "unit", n: 2, faultTolerant: true,
		plan: []faultSpec{{Proc: 0, Phase: "sync", Hit: 0}},
		run: func(_ *framework.Eval, mp *modelProc) Value {
			mp.opBarrier("sync", token.NoPos)
			if mp.id == 0 && mp.faultCount > 0 {
				return framework.Err{Msg: "lost my state"}
			}
			return framework.Nil{}
		},
	}
	fs, _ := explore(nil, w)
	if len(fs) == 0 || !strings.Contains(fs[0].Msg, "aborts with") {
		t.Fatalf("abort under tolerated plan not reported:\n%s", findingMsgs(fs))
	}
}

// TestCheckerDeadlineChoices: a deadline receive is explored both on-time
// and late; with no sender it must resolve late without findings, and the
// DFS must try both branches when a sender exists.
func TestCheckerDeadlineNoSender(t *testing.T) {
	late := 0
	w := unitWorld(2, func(mp *modelProc) {
		if mp.id == 1 {
			if _, onTime := mp.opRecvDeadline(0, "slow", token.NoPos); !onTime {
				late++
			}
		}
	})
	fs, _ := explore(nil, w)
	if len(fs) != 0 {
		t.Fatalf("deadline receive with no sender produced findings:\n%s", findingMsgs(fs))
	}
	if late == 0 {
		t.Fatalf("deadline receive never resolved late")
	}
}

func TestCheckerDeadlineBothBranches(t *testing.T) {
	var onTimes, lates int
	w := unitWorld(2, func(mp *modelProc) {
		if mp.id == 0 {
			mp.opSend(1, "res", framework.KnownInt(1), token.NoPos)
		} else {
			if _, onTime := mp.opRecvDeadline(0, "res", token.NoPos); onTime {
				onTimes++
			} else {
				lates++
			}
		}
	})
	fs, _ := explore(nil, w)
	if len(fs) != 0 {
		t.Fatalf("deadline receive with sender produced findings:\n%s", findingMsgs(fs))
	}
	if onTimes == 0 || lates == 0 {
		t.Fatalf("DFS did not explore both deadline outcomes: onTime=%d late=%d", onTimes, lates)
	}
}

// TestCheckerExhaustiveAgreesWithDeterministic cross-validates the Kahn
// confluence argument: for a world whose only nondeterminism is scheduling
// order, the run-to-block deterministic schedule and the exhaustive
// schedule explorer must agree on the verdict — both on a clean protocol
// and on a broken one.
func TestCheckerExhaustiveAgreesWithDeterministic(t *testing.T) {
	build := func(exhaustive, broken bool) *world {
		return &world{
			name:       "unit",
			n:          3,
			exhaustive: exhaustive,
			maxRuns:    maxWorldRuns,
			run: func(_ *framework.Eval, mp *modelProc) Value {
				// All-to-root gather; the broken variant drops p2's drain.
				if mp.id != 0 {
					mp.opSend(0, "g", framework.KnownInt(int64(mp.id)), token.NoPos)
					return framework.Nil{}
				}
				mp.opRecv(1, "g", token.NoPos)
				if !broken {
					mp.opRecv(2, "g", token.NoPos)
				}
				return framework.Nil{}
			},
		}
	}
	for _, broken := range []bool{false, true} {
		det, _ := explore(nil, build(false, broken))
		exh, _ := explore(nil, build(true, broken))
		if (len(det) == 0) != (len(exh) == 0) {
			t.Fatalf("broken=%v: deterministic (%d findings) and exhaustive (%d findings) disagree:\n--- det:\n%s\n--- exh:\n%s",
				broken, len(det), len(exh), findingMsgs(det), findingMsgs(exh))
		}
		if broken && !strings.Contains(findingMsgs(det)+findingMsgs(exh), "never received") {
			t.Fatalf("broken gather not reported as orphan in both modes")
		}
	}
}

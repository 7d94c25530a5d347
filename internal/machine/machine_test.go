package machine

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bigint"
)

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{P: 0}, nil); err == nil {
		t.Error("P=0 should fail")
	}
	if _, err := New(Config{P: 2}, []Fault{{Proc: 5, Phase: "x"}}); err == nil {
		t.Error("fault for nonexistent proc should fail")
	}
}

func TestIntsWords(t *testing.T) {
	v := Ints{bigint.Zero(), bigint.One(), bigint.One().Shl(200)}
	// zero counts 1, one counts 1, 201-bit counts 4 limbs.
	if got := v.Words(); got != 6 {
		t.Errorf("Words() = %d, want 6", got)
	}
}

func TestSendRecv(t *testing.T) {
	m, err := New(Config{P: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := Ints{bigint.FromInt64(42)}
	rep, err := m.Run(func(p *Proc) error {
		if p.ID() == 0 {
			return p.Send(1, "data", payload)
		}
		got, err := p.RecvInts(0, "data")
		if err != nil {
			return err
		}
		if len(got) != 1 || !got[0].Equal(bigint.FromInt64(42)) {
			return fmt.Errorf("wrong payload: %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PerProc[0].Messages != 1 || rep.PerProc[0].SentWords != 1 {
		t.Errorf("sender stats: %+v", rep.PerProc[0])
	}
	if rep.PerProc[1].RecvWords != 1 {
		t.Errorf("receiver stats: %+v", rep.PerProc[1])
	}
	if rep.L != 1 || rep.BW != 1 {
		t.Errorf("report: L=%d BW=%d", rep.L, rep.BW)
	}
}

func TestTagMismatch(t *testing.T) {
	eachBackend(t, func(t *testing.T, b Backend) {
		m, _ := New(Config{P: 2, Backend: b}, nil)
		_, err := m.Run(func(p *Proc) error {
			if p.ID() == 0 {
				return p.Send(1, "alpha", Meta{})
			}
			_, err := p.Recv(0, "beta")
			return err
		})
		if err == nil || !strings.Contains(err.Error(), "expected tag") {
			t.Fatalf("err = %v, want a tag mismatch", err)
		}
	})
}

func TestRecvTimeout(t *testing.T) {
	eachBackend(t, func(t *testing.T, b Backend) {
		m, _ := New(Config{P: 2, Backend: b, RecvTimeout: 50 * time.Millisecond}, nil)
		_, err := m.Run(func(p *Proc) error {
			if p.ID() == 1 {
				_, err := p.Recv(0, "never")
				return err
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "timed out") {
			t.Fatalf("err = %v, want a timeout", err)
		}
	})
}

func TestClockCriticalPath(t *testing.T) {
	// A chain 0 -> 1 -> 2: proc 2's clock must include both transfers and
	// all work, regardless of real scheduling.
	cfg := Config{P: 3, Alpha: 100, Beta: 1, Gamma: 1}
	m, _ := New(cfg, nil)
	rep, err := m.Run(func(p *Proc) error {
		switch p.ID() {
		case 0:
			p.Work(50)
			return p.Send(1, "x", Meta{})
		case 1:
			if _, err := p.Recv(0, "x"); err != nil {
				return err
			}
			p.Work(50)
			return p.Send(2, "x", Meta{})
		default:
			_, err := p.Recv(1, "x")
			return err
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// clock(proc2) = 50 + (100+1) + 50 + (100+1) = 302.
	if got := rep.PerProc[2].Clock; got != 302 {
		t.Errorf("critical path clock = %v, want 302", got)
	}
	if rep.Time != 302 {
		t.Errorf("report time = %v", rep.Time)
	}
}

func TestWorkAccounting(t *testing.T) {
	m, _ := New(Config{P: 1, Gamma: 2}, nil)
	rep, _ := m.Run(func(p *Proc) error {
		p.Work(10)
		return nil
	})
	if rep.F != 10 {
		t.Errorf("F = %d", rep.F)
	}
	if rep.PerProc[0].Clock != 20 {
		t.Errorf("clock = %v, want 20 (γ=2)", rep.PerProc[0].Clock)
	}
}

func TestStoreLoadFree(t *testing.T) {
	m, _ := New(Config{P: 1}, nil)
	_, err := m.Run(func(p *Proc) error {
		v := Ints{bigint.One().Shl(128)} // 3 limbs
		if err := p.Store("a", v); err != nil {
			return err
		}
		if p.MemoryWords() != 3 {
			return fmt.Errorf("mem = %d, want 3", p.MemoryWords())
		}
		got, err := p.LoadInts("a")
		if err != nil {
			return err
		}
		if !got[0].Equal(v[0]) {
			return fmt.Errorf("loaded wrong value")
		}
		p.Free("a")
		if p.MemoryWords() != 0 {
			return fmt.Errorf("free did not release memory")
		}
		if _, err := p.LoadInts("a"); err == nil {
			return fmt.Errorf("expected miss after Free")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMemoryCapacity(t *testing.T) {
	m, _ := New(Config{P: 1, MemoryWords: 4}, nil)
	_, err := m.Run(func(p *Proc) error {
		big := Ints{bigint.One().Shl(64 * 8)} // 9 limbs > 4
		if err := p.Store("big", big); err == nil {
			return fmt.Errorf("expected out-of-memory error")
		}
		small := Ints{bigint.One()}
		if err := p.Store("s", small); err != nil {
			return err
		}
		// Overwriting a key releases the old allocation.
		if err := p.Store("s", Ints{bigint.One().Shl(64 * 2)}); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPeakMemory(t *testing.T) {
	m, _ := New(Config{P: 1}, nil)
	rep, _ := m.Run(func(p *Proc) error {
		_ = p.Store("a", Ints{bigint.One().Shl(64 * 4)}) // 5 words
		p.Free("a")
		_ = p.Store("b", Ints{bigint.One()}) // 1 word
		return nil
	})
	if rep.PerProc[0].PeakWords != 5 {
		t.Errorf("peak = %d, want 5", rep.PerProc[0].PeakWords)
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	m, _ := New(Config{P: 3, Alpha: 1, Beta: 1, Gamma: 1}, nil)
	rep, err := m.Run(func(p *Proc) error {
		p.Work(int64(p.ID()) * 100) // staggered work
		if _, err := p.Barrier("sync"); err != nil {
			return err
		}
		if p.Clock() < 200 {
			return fmt.Errorf("proc %d clock %v below slowest worker", p.ID(), p.Clock())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Time < 200 {
		t.Errorf("time %v", rep.Time)
	}
}

func TestFaultInjection(t *testing.T) {
	plan := []Fault{{Proc: 1, Phase: "mul"}}
	m, _ := New(Config{P: 3}, plan)
	var observed int32
	_, err := m.Run(func(p *Proc) error {
		if err := p.Store("data", Ints{bigint.FromInt64(int64(p.ID()))}); err != nil {
			return err
		}
		events, err := p.Barrier("mul")
		if err != nil {
			return err
		}
		if len(events) != 1 || events[0].Proc != 1 {
			return fmt.Errorf("proc %d saw events %v", p.ID(), events)
		}
		atomic.AddInt32(&observed, 1)
		if p.ID() == 1 {
			// The replacement's store is empty.
			if _, err := p.LoadInts("data"); err == nil {
				return fmt.Errorf("fault did not wipe store")
			}
			if p.FaultCount() != 1 {
				return fmt.Errorf("fault count %d", p.FaultCount())
			}
		} else if _, err := p.LoadInts("data"); err != nil {
			return fmt.Errorf("survivor lost data: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if observed != 3 {
		t.Errorf("only %d procs observed the fault", observed)
	}
}

func TestFaultHitCounting(t *testing.T) {
	// Proc 0 dies the second time it reaches barrier "step".
	plan := []Fault{{Proc: 0, Phase: "step", Hit: 1}}
	m, _ := New(Config{P: 2}, plan)
	_, err := m.Run(func(p *Proc) error {
		ev1, err := p.Barrier("step")
		if err != nil {
			return err
		}
		if len(ev1) != 0 {
			return fmt.Errorf("unexpected fault at first hit: %v", ev1)
		}
		ev2, err := p.Barrier("step")
		if err != nil {
			return err
		}
		if len(ev2) != 1 || ev2[0].Proc != 0 {
			return fmt.Errorf("expected fault at second hit, got %v", ev2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMultipleFaultsSameBarrier(t *testing.T) {
	plan := []Fault{{Proc: 0, Phase: "x"}, {Proc: 2, Phase: "x"}}
	m, _ := New(Config{P: 4}, plan)
	_, err := m.Run(func(p *Proc) error {
		events, err := p.Barrier("x")
		if err != nil {
			return err
		}
		if len(events) != 2 || events[0].Proc != 0 || events[1].Proc != 2 {
			return fmt.Errorf("events %v", events)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierAfterProcExit(t *testing.T) {
	// One proc returns early; the rest must still pass barriers.
	m, _ := New(Config{P: 3}, nil)
	_, err := m.Run(func(p *Proc) error {
		if p.ID() == 2 {
			return nil // leaves immediately
		}
		_, err := p.Barrier("late")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReportAggregation(t *testing.T) {
	m, _ := New(Config{P: 2}, nil)
	rep, _ := m.Run(func(p *Proc) error {
		p.Work(int64(10 * (p.ID() + 1)))
		if p.ID() == 0 {
			return p.Send(1, "t", Ints{bigint.One()})
		}
		_, err := p.Recv(0, "t")
		return err
	})
	if rep.TotalF != 30 || rep.F != 20 {
		t.Errorf("F: total %d max %d", rep.TotalF, rep.F)
	}
	if rep.TotalL != 1 {
		t.Errorf("TotalL = %d", rep.TotalL)
	}
}

// TestRankErrorCancelsRun: rank 1 returns an error while rank 0 waits in
// Recv on it. Run cancels the run at once instead of leaving rank 0 to
// wait out the 30 s receive timeout, and returns rank 1's error, the
// failure that caused the cancellation, ahead of rank 0's.
func TestRankErrorCancelsRun(t *testing.T) {
	eachBackend(t, func(t *testing.T, b Backend) {
		m, err := New(Config{P: 2, Backend: b}, nil)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		_, err = m.Run(func(p *Proc) error {
			if p.ID() == 1 {
				time.Sleep(10 * time.Millisecond) // let rank 0 block first
				return fmt.Errorf("rank 1 gives up")
			}
			_, err := p.Recv(1, "never")
			return err
		})
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Errorf("Run returned after %v, want under 1s", elapsed)
		}
		if err == nil || err.Error() != "rank 1 gives up" {
			t.Fatalf("err = %v, want rank 1's error", err)
		}
	})
}

func TestProgramErrorPropagates(t *testing.T) {
	m, _ := New(Config{P: 2}, nil)
	_, err := m.Run(func(p *Proc) error {
		if p.ID() == 1 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v", err)
	}
}

// TestRankPanicBecomesError: rank 2 of a ring exchange panics between its
// send and its receive. Run must not crash the caller: it returns within a
// second (the receive timeout is 30 s) with an error naming rank 2, ahead
// of the cancellation errors of the peers left waiting on it, on both
// backends.
func TestRankPanicBecomesError(t *testing.T) {
	for _, backend := range []Backend{BackendSim, BackendWall} {
		t.Run(string(backend), func(t *testing.T) {
			m, err := New(Config{P: 4, Backend: backend}, nil)
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			_, err = m.Run(func(p *Proc) error {
				next, prev := (p.ID()+1)%4, (p.ID()+3)%4
				for round := 0; round < 2; round++ {
					if err := p.Send(next, "ring", Ints{bigint.FromInt64(int64(round))}); err != nil {
						return err
					}
					if p.ID() == 2 && round == 1 {
						panic("mid-exchange")
					}
					if _, err := p.RecvInts(prev, "ring"); err != nil {
						return err
					}
				}
				// Rank 3's second receive from rank 2 comes through; rank 0
				// then waits on rank 3's never-sent third message.
				if _, err := p.RecvInts(prev, "ring"); err != nil {
					return err
				}
				return nil
			})
			if elapsed := time.Since(start); elapsed > time.Second {
				t.Errorf("Run returned after %v, want under 1s", elapsed)
			}
			if err == nil || !strings.Contains(err.Error(), "rank 2 panicked: mid-exchange") {
				t.Fatalf("err = %v, want the panic of rank 2", err)
			}
		})
	}
}

func TestSendBounds(t *testing.T) {
	m, _ := New(Config{P: 1}, nil)
	_, err := m.Run(func(p *Proc) error {
		if err := p.Send(7, "x", Meta{}); err == nil {
			return fmt.Errorf("expected out-of-range error")
		}
		if _, err := p.Recv(-1, "x"); err == nil {
			return fmt.Errorf("expected out-of-range error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMarks(t *testing.T) {
	m, _ := New(Config{P: 2, Gamma: 1}, nil)
	rep, err := m.Run(func(p *Proc) error {
		p.Work(10)
		p.Mark("after-work")
		if p.ID() == 0 {
			if err := p.Send(1, "x", Meta{}); err != nil {
				return err
			}
		} else if _, err := p.Recv(0, "x"); err != nil {
			return err
		}
		p.Mark("after-comm")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	marks := rep.Marks[0]
	if len(marks) != 2 || marks[0].Label != "after-work" || marks[1].Label != "after-comm" {
		t.Fatalf("marks = %+v", marks)
	}
	if marks[0].Flops != 10 {
		t.Errorf("first mark flops = %d", marks[0].Flops)
	}
	if marks[1].Messages != 1 {
		t.Errorf("sender second mark messages = %d", marks[1].Messages)
	}
}

func TestSpeedFactors(t *testing.T) {
	m, _ := New(Config{P: 2, Gamma: 1, SpeedFactors: []float64{1, 10}}, nil)
	rep, err := m.Run(func(p *Proc) error {
		p.Work(100)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PerProc[0].Clock != 100 || rep.PerProc[1].Clock != 1000 {
		t.Errorf("clocks = %v, %v; want 100, 1000", rep.PerProc[0].Clock, rep.PerProc[1].Clock)
	}
	// F counts are unaffected by the slowdown — only virtual time is.
	if rep.PerProc[1].Flops != 100 {
		t.Errorf("slow proc flops = %d", rep.PerProc[1].Flops)
	}
}

func TestRecvDeadline(t *testing.T) {
	m, _ := New(Config{P: 3, Alpha: 10, Beta: 1, Gamma: 1}, nil)
	_, err := m.Run(func(p *Proc) error {
		switch p.ID() {
		case 0:
			// Fast sender: arrives around t=11.
			return p.Send(2, "d", Meta{})
		case 1:
			// Slow sender: works first, arrives around t=1011.
			p.Work(1000)
			return p.Send(2, "d", Meta{})
		default:
			// Accept only what arrives by t=500.
			got, ok, err := p.RecvDeadline(0, "d", 500)
			if err != nil {
				return err
			}
			if !ok || got == nil {
				return fmt.Errorf("fast sender should beat the deadline")
			}
			_, ok, err = p.RecvDeadline(1, "d", 500)
			if err != nil {
				return err
			}
			if ok {
				return fmt.Errorf("slow sender should miss the deadline")
			}
			if p.Clock() != 500 {
				return fmt.Errorf("clock should advance to the deadline, got %v", p.Clock())
			}
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLazyChannelAllocation(t *testing.T) {
	// Channels must be created on first use of a (sender, receiver) pair,
	// not eagerly for all P² pairs: a ring protocol on a 64-processor
	// machine should materialize exactly the 64 pair channels it touches.
	eachBackend(t, func(t *testing.T, b Backend) {
		m, err := New(Config{P: 64, Backend: b}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.net.used; got != 0 {
			t.Fatalf("machine allocated %d channels before any send", got)
		}
		_, err = m.Run(func(p *Proc) error {
			next := (p.ID() + 1) % p.P()
			prev := (p.ID() + p.P() - 1) % p.P()
			if err := p.Send(next, "ring", Meta{Value: p.ID()}); err != nil {
				return err
			}
			got, err := p.Recv(prev, "ring")
			if err != nil {
				return err
			}
			if got.(Meta).Value != prev {
				return fmt.Errorf("proc %d: bad ring value %v", p.ID(), got)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := m.net.used; got != 64 {
			t.Fatalf("ring on P=64 allocated %d channels, want 64 (one per used pair)", got)
		}
	})
}

func TestWorkChargesGammaAndCountsFlops(t *testing.T) {
	eachBackend(t, func(t *testing.T, b Backend) {
		_, ps := ranks(t, Config{P: 1, Backend: b, Gamma: 2}, nil)
		ps[0].Work(10)
		if ps[0].st.Flops != 10 {
			t.Errorf("flops = %d", ps[0].st.Flops)
		}
		if now := ps[0].Clock(); b == BackendSim && now != 20 {
			t.Errorf("clock = %v, want 20 (γ=2)", now)
		}
	})
}

func TestSendChargesAlphaBetaAndStampsAfterCharge(t *testing.T) {
	eachBackend(t, func(t *testing.T, b Backend) {
		_, ps := ranks(t, Config{P: 2, Backend: b, Alpha: 100, Beta: 10, Gamma: 1}, nil)
		if err := ps[0].Send(1, "x", words(3)); err != nil {
			t.Fatal(err)
		}
		if st := ps[0].st; st.Messages != 1 || st.SentWords != 3 {
			t.Errorf("sender stats = %+v", st)
		}
		if _, err := ps[1].Recv(0, "x"); err != nil {
			t.Fatal(err)
		}
		if st := ps[1].st; st.RecvWords != 3 || st.Messages != 0 {
			t.Errorf("receiver stats = %+v", st)
		}
		if b != BackendSim {
			return
		}
		if now := ps[0].Clock(); now != 130 {
			t.Errorf("sender clock = %v, want 130 (α+3β)", now)
		}
		// The arrival stamp includes the sender's transfer charge.
		if now := ps[1].Clock(); now != 130 {
			t.Errorf("receiver clock = %v, want 130", now)
		}
	})
}

func TestBarrierChargesTreeCost(t *testing.T) {
	eachBackend(t, func(t *testing.T, b Backend) {
		m, _ := New(Config{P: 4, Backend: b, Alpha: 100, Beta: 10, Gamma: 1}, nil)
		rep, err := m.Run(func(p *Proc) error {
			_, err := p.Barrier("x")
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		// log2(4) = 2 one-word messages, each costing α+β.
		if st := rep.PerProc[0]; st.Messages != 2 || st.SentWords != 2 || st.Barriers != 1 {
			t.Errorf("barrier stats = %+v, want 2 messages / 2 words / 1 barrier", st)
		}
		if b == BackendSim && rep.Time != 220 {
			t.Errorf("clock = %v, want 220", rep.Time)
		}
	})
}

func TestBarrierChargesAtLeastOneMessage(t *testing.T) {
	m, _ := New(Config{P: 1}, nil)
	rep, err := m.Run(func(p *Proc) error {
		_, err := p.Barrier("x")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.PerProc[0].Messages; got != 1 {
		t.Errorf("P=1 barrier messages = %d, want 1 (⌈log₂P⌉ floored at 1)", got)
	}
}

// TestMissedDeadlineChargesNothing: on sim the message is stamped after the
// deadline; on wall nothing arrives before the real deadline. Either way
// the miss charges no received words.
func TestMissedDeadlineChargesNothing(t *testing.T) {
	eachBackend(t, func(t *testing.T, b Backend) {
		_, ps := ranks(t, Config{P: 2, Backend: b, Alpha: 1, Beta: 1, Gamma: 1}, nil)
		deadline := ps[1].Clock() + 0.005 // 5 ms on the free-running wall clock
		if b == BackendSim {
			ps[0].Work(700)
			if err := ps[0].Send(1, "d", words(5)); err != nil {
				t.Fatal(err)
			}
			deadline = 500
		}
		if _, ok, err := ps[1].RecvDeadline(0, "d", deadline); err != nil || ok {
			t.Fatalf("ok=%v err=%v", ok, err)
		}
		if got := ps[1].st.RecvWords; got != 0 {
			t.Errorf("missed deadline charged %d recv words", got)
		}
	})
}

// TestValidatesPlan: New rejects a fault plan that names a rank outside
// [0, P), on either backend, and accepts one that names the last rank.
func TestValidatesPlan(t *testing.T) {
	eachBackend(t, func(t *testing.T, b Backend) {
		for _, proc := range []int{-1, 2} {
			if _, err := New(Config{P: 2, Backend: b}, []Fault{{Proc: proc, Phase: "x"}}); err == nil {
				t.Errorf("fault for nonexistent rank %d should fail", proc)
			}
		}
		if _, err := New(Config{P: 2, Backend: b}, []Fault{{Proc: 1, Phase: "x"}}); err != nil {
			t.Errorf("fault for rank 1 of 2: %v", err)
		}
	})
}

// TestInjectsAtScheduledHit: rank 1 is scheduled to die at its second
// crossing of "mul". The first crossing and a crossing of another phase
// inject nothing; the second wipes rank 1's store, and only rank 1's, and
// lands in the report's fault log.
func TestInjectsAtScheduledHit(t *testing.T) {
	eachBackend(t, func(t *testing.T, b Backend) {
		m, _ := New(Config{P: 3, Backend: b}, []Fault{{Proc: 1, Phase: "mul", Hit: 1}})
		rep, err := m.Run(func(p *Proc) error {
			if err := p.Store("data", Meta{}); err != nil {
				return err
			}
			for i, phase := range []string{"mul", "other", "mul"} {
				events, err := p.Barrier(phase)
				if err != nil {
					return err
				}
				if i < 2 && len(events) != 0 {
					return fmt.Errorf("crossing %d (%s) injected %v", i, phase, events)
				}
				if i == 2 && (len(events) != 1 || events[0] != FaultEvent{Proc: 1, Phase: "mul"}) {
					return fmt.Errorf("second mul crossing events = %v", events)
				}
			}
			if _, kept := p.Load("data"); kept == (p.ID() == 1) {
				return fmt.Errorf("rank %d store after the fault: kept=%v", p.ID(), kept)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Faults) != 1 || rep.Faults[0].Proc != 1 || rep.PerProc[1].Faults != 1 {
			t.Errorf("report faults = %v, rank 1 stats = %+v", rep.Faults, rep.PerProc[1])
		}
	})
}

func TestAllRanksSeeTheFault(t *testing.T) {
	eachBackend(t, func(t *testing.T, b Backend) {
		m, _ := New(Config{P: 4, Backend: b}, []Fault{{Proc: 2, Phase: "x"}})
		seen := make([][]FaultEvent, 4)
		if _, err := m.Run(func(p *Proc) error {
			var err error
			seen[p.ID()], err = p.Barrier("x")
			return err
		}); err != nil {
			t.Fatal(err)
		}
		for i, ev := range seen {
			if len(ev) != 1 || ev[0].Proc != 2 {
				t.Errorf("rank %d saw %v", i, ev)
			}
		}
	})
}

func TestSpeedFactorScalesWorkOnly(t *testing.T) {
	_, ps := ranks(t, Config{P: 2, Alpha: 4, Beta: 1, Gamma: 1, SpeedFactors: []float64{1, 10}}, nil)
	ps[0].Work(100)
	ps[1].Work(100)
	if err := ps[1].Send(0, "x", words(1)); err != nil { // communication: never scaled
		t.Fatal(err)
	}
	if now := ps[0].Clock(); now != 100 {
		t.Errorf("rank 0 clock = %v", now)
	}
	if now := ps[1].Clock(); now != 1005 {
		t.Errorf("rank 1 clock = %v, want 1005 (10×work + unscaled α+β)", now)
	}
	if ps[1].st.Flops != 100 {
		t.Errorf("slow rank flops = %d", ps[1].st.Flops)
	}
}

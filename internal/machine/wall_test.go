package machine

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/bigint"
)

// The wall-clock backend must run the same programs as the simulator with
// identical F/BW/L accounting; only the meaning of Clock/Time changes.

func TestWallBackendSendRecvCounts(t *testing.T) {
	m, err := New(Config{P: 2, Backend: BackendWall}, nil)
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
	if rep.PerProc[0].Messages != 1 || rep.PerProc[0].SentWords != 1 || rep.PerProc[1].RecvWords != 1 {
		t.Errorf("stats: %+v", rep.PerProc)
	}
}

func TestWallBackendFaultInjection(t *testing.T) {
	plan := []Fault{{Proc: 1, Phase: "mul"}}
	m, err := New(Config{P: 3, Backend: BackendWall}, plan)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run(func(p *Proc) error {
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
		if p.ID() == 1 {
			if _, err := p.LoadInts("data"); err == nil {
				return fmt.Errorf("fault did not wipe store")
			}
		} else if _, err := p.LoadInts("data"); err != nil {
			return fmt.Errorf("survivor lost data: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Faults) != 1 || rep.PerProc[1].Faults != 1 {
		t.Errorf("report faults = %v, per-proc = %+v", rep.Faults, rep.PerProc[1])
	}
}

func TestWallBackendContextCancel(t *testing.T) {
	m, err := New(Config{P: 2, Backend: BackendWall}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = m.RunContext(ctx, func(p *Proc) error {
		if p.ID() == 0 {
			return nil
		}
		_, err := p.Recv(0, "never") // nothing will arrive; cancel unblocks
		return err
	})
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("cancel did not abort the blocked recv promptly")
	}
}

func TestWallBackendDilationClocks(t *testing.T) {
	m, err := New(Config{P: 1, Backend: BackendWall, Gamma: 1, WallTimeDilation: time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run(func(p *Proc) error {
		p.Work(50) // 50 model units = 50ms of real time
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PerProc[0].Flops != 50 {
		t.Errorf("flops = %d", rep.PerProc[0].Flops)
	}
	if rep.Time < 50 {
		t.Errorf("dilated Time = %v model units, want >= 50", rep.Time)
	}
}

func TestUnknownBackendRejected(t *testing.T) {
	if _, err := New(Config{P: 1, Backend: Backend("quantum")}, nil); err == nil {
		t.Fatal("unknown backend should fail")
	}
}

// TestBackendsAgreeOnBarrierProtocol runs a small all-phases program on
// both backends and checks the accounting matches exactly.
func TestBackendsAgreeOnCounts(t *testing.T) {
	program := func(p *Proc) error {
		p.Work(100 * int64(p.ID()+1))
		if p.ID() == 0 {
			if err := p.Send(1, "x", Ints{bigint.FromInt64(7)}); err != nil {
				return err
			}
		} else if _, err := p.RecvInts(0, "x"); err != nil {
			return err
		}
		if _, err := p.Barrier("sync"); err != nil {
			return err
		}
		p.Work(10)
		return nil
	}
	var reports []*Report
	for _, backend := range []Backend{BackendSim, BackendWall} {
		m, err := New(Config{P: 2, Backend: backend}, nil)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := m.Run(program)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		reports = append(reports, rep)
	}
	sim, wall := reports[0], reports[1]
	if sim.F != wall.F || sim.BW != wall.BW || sim.L != wall.L ||
		sim.TotalF != wall.TotalF || sim.TotalBW != wall.TotalBW || sim.TotalL != wall.TotalL {
		t.Errorf("counts diverge: sim F=%d BW=%d L=%d, wall F=%d BW=%d L=%d",
			sim.F, sim.BW, sim.L, wall.F, wall.BW, wall.L)
	}
}

// TestWallRecvDeadline: a message queued well before its deadline is
// accepted; with nothing sent, the receive returns a miss once the real
// deadline, 30 ms after the machine was made, has passed.
func TestWallRecvDeadline(t *testing.T) {
	_, ps := ranks(t, Config{P: 2, Backend: BackendWall, Alpha: 1e-9, Beta: 1e-9, WallTimeDilation: time.Millisecond}, nil)
	if err := ps[0].Send(1, "d", words(1)); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := ps[1].RecvDeadline(0, "d", 10_000); err != nil || !ok { // 10 s of model time
		t.Fatalf("on-time message rejected: ok=%v err=%v", ok, err)
	}
	start := time.Now()
	_, ok, err := ps[1].RecvDeadline(0, "d", 30)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("deadline with no sender should miss")
	}
	if now := ps[1].Clock(); now < 30 {
		t.Errorf("missed at %v model units, before the 30 unit deadline", now)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("deadline wait did not use the real deadline")
	}
}

func TestDilationSleepsWorkAndConvertsNow(t *testing.T) {
	_, ps := ranks(t, Config{P: 1, Backend: BackendWall, Gamma: 1, WallTimeDilation: time.Millisecond}, nil)
	ps[0].Work(50) // 50 model units = 50ms of real time
	if now := ps[0].Clock(); now < 50 {
		t.Errorf("Clock() = %v model units after charging 50", now)
	}
}

// TestDilationDoesNotAccumulateLateness charges 400 model units of 100µs
// one at a time. Each sleep may fire late (about a millisecond on some
// hosts, which made 400 of them take over 400ms); the overrun is made up
// on later charges, so the whole run stays near its 40ms of charges,
// and never below them.
func TestDilationDoesNotAccumulateLateness(t *testing.T) {
	_, ps := ranks(t, Config{P: 1, Backend: BackendWall, Gamma: 1, WallTimeDilation: 100 * time.Microsecond}, nil)
	start := ps[0].Clock()
	for i := 0; i < 400; i++ {
		ps[0].Work(1)
	}
	if got := ps[0].Clock() - start; got < 400 || got > 1400 {
		t.Errorf("400 one-unit charges took %.0f units (of 100µs), want [400, 1400]", got)
	}
}

func TestFreeRunningNowIsSeconds(t *testing.T) {
	_, ps := ranks(t, Config{P: 1, Backend: BackendWall, Gamma: 1}, nil)
	ps[0].Work(1e9) // free-running: charges are not slept
	if now := ps[0].Clock(); now > 60 {
		t.Errorf("free-running Clock() = %v, should be wall seconds", now)
	}
}

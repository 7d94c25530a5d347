package machine

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"
)

// words is a message of n zero entries, which costs n words.
func words(n int) Ints { return make(Ints, n) }

// eachBackend runs test once per backend, as a subtest named after it.
func eachBackend(t *testing.T, test func(t *testing.T, b Backend)) {
	for _, b := range []Backend{BackendSim, BackendWall} {
		t.Run(string(b), func(t *testing.T) { test(t, b) })
	}
}

// ranks makes a machine and hands out its processors for a test to drive
// directly, from goroutines of its own, without Run.
func ranks(t *testing.T, cfg Config, plan []Fault) (*Machine, []*Proc) {
	t.Helper()
	m, err := New(cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	return m, m.procs
}

// withContext makes every rank's waits abort when ctx is canceled, as Run
// does with its own context.
func withContext(ctx context.Context, ps []*Proc) {
	for _, p := range ps {
		p.ctx = ctx
	}
}

func TestClockStampsAndRecvSync(t *testing.T) {
	_, ps := ranks(t, Config{P: 2, Alpha: 1, Beta: 1, Gamma: 1}, nil)
	ps[0].Work(46)
	if err := ps[0].Send(1, "x", words(3)); err != nil { // stamp 46 + α + 3β = 50
		t.Fatal(err)
	}
	got, err := ps[1].Recv(0, "x")
	if err != nil {
		t.Fatal(err)
	}
	if got.Words() != 3 {
		t.Errorf("payload = %v", got)
	}
	// The receiver's clock jumps to the sender's stamp, not beyond.
	if now := ps[1].Clock(); now != 50 {
		t.Errorf("receiver clock = %v, want 50", now)
	}
	// A receiver already past the stamp keeps its own clock.
	ps[0].Work(8)
	if err := ps[0].Send(1, "y", words(1)); err != nil { // stamp 60
		t.Fatal(err)
	}
	ps[1].Work(100) // clock 150
	if _, err := ps[1].Recv(0, "y"); err != nil {
		t.Fatal(err)
	}
	if now := ps[1].Clock(); now != 150 {
		t.Errorf("receiver clock = %v, want 150", now)
	}
}

// TestDeadlineDropsLateMessage: a message stamped after the deadline (sim:
// sent at virtual time 702; wall: sent 10 ms after a 5 ms deadline) is
// consumed and dropped, and on sim the receiver's clock moves to the
// deadline.
func TestDeadlineDropsLateMessage(t *testing.T) {
	eachBackend(t, func(t *testing.T, b Backend) {
		_, ps := ranks(t, Config{P: 2, Backend: b, Alpha: 1, Beta: 1, Gamma: 1, RecvTimeout: 50 * time.Millisecond}, nil)
		deadline := ps[1].Clock() + 0.005
		if b == BackendSim {
			ps[0].Work(700)
			deadline = 500
		} else {
			time.Sleep(10 * time.Millisecond)
		}
		if err := ps[0].Send(1, "d", words(2)); err != nil {
			t.Fatal(err)
		}
		_, ok, err := ps[1].RecvDeadline(0, "d", deadline)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatal("late message should be rejected")
		}
		if now := ps[1].Clock(); now < deadline || (b == BackendSim && now != deadline) {
			t.Errorf("clock = %v after the miss, want the deadline %v", now, deadline)
		}
		// The late message was consumed, not left queued.
		if _, err := ps[1].Recv(0, "d"); err == nil || !strings.Contains(err.Error(), "timed out") {
			t.Fatalf("err = %v, want a timeout: the late message must have been dropped", err)
		}
	})
}

// TestRecvDeadlineQueuedBeforePassedDeadline sends each message before its
// deadline but receives it only after the deadline has passed: the
// receiver's clock (sim) or real time (wall) is past it. The message was on
// time, so it must be reported ok every time, however the expired timer and
// the queued message race on the wall clock.
func TestRecvDeadlineQueuedBeforePassedDeadline(t *testing.T) {
	eachBackend(t, func(t *testing.T, b Backend) {
		// α and β are so small that the dilated sends sleep nothing.
		_, ps := ranks(t, Config{P: 2, Backend: b, Alpha: 1e-9, Beta: 1e-9, Gamma: 1, WallTimeDilation: time.Millisecond}, nil)
		for i := 0; i < 32; i++ {
			if err := ps[0].Send(1, "d", words(i)); err != nil {
				t.Fatal(err)
			}
			// On wall, 1 ms after the send; on sim, the receiver's clock
			// is never behind the sender's.
			deadline := ps[1].Clock() + 1
			if b == BackendSim {
				ps[1].Work(2)
			}
			for ps[1].Clock() <= deadline {
				time.Sleep(100 * time.Microsecond)
			}
			got, ok, err := ps[1].RecvDeadline(0, "d", deadline)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("iteration %d: message sent before the deadline reported late", i)
			}
			if got.Words() != int64(i) {
				t.Fatalf("iteration %d: payload %v", i, got)
			}
		}
	})
}

func TestFullChannelIsProtocolError(t *testing.T) {
	_, ps := ranks(t, Config{P: 2}, nil)
	for i := 0; i < pairCap; i++ {
		if err := ps[0].Send(1, "x", words(1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ps[0].Send(1, "x", words(1)); err == nil || !strings.Contains(err.Error(), "full") {
		t.Fatalf("send into a full FIFO: err = %v, want a protocol error, not a block", err)
	}
}

func TestSendBackpressureUnblocksOnRecv(t *testing.T) {
	_, ps := ranks(t, Config{P: 2, Backend: BackendWall}, nil)
	for i := 0; i < pairCap; i++ {
		if err := ps[0].Send(1, "x", words(1)); err != nil {
			t.Fatal(err)
		}
	}
	sent := make(chan error, 1)
	go func() { sent <- ps[0].Send(1, "x", words(1)) }()
	time.Sleep(10 * time.Millisecond)
	select {
	case err := <-sent:
		t.Fatalf("send into a full FIFO returned %v, want it to wait", err)
	default:
	}
	if _, err := ps[1].Recv(0, "x"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-sent:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("full-FIFO send did not unblock after a receive")
	}
}

// TestBarrierMergesAndSorts: ranks 1 and 0 die at the same barrier, rank 1
// arriving first; both see both events, sorted by rank.
func TestBarrierMergesAndSorts(t *testing.T) {
	eachBackend(t, func(t *testing.T, b Backend) {
		_, ps := ranks(t, Config{P: 2, Backend: b}, []Fault{{Proc: 1, Phase: "x"}, {Proc: 0, Phase: "x"}})
		type out struct {
			ev  []FaultEvent
			err error
		}
		ch := make(chan out, 1)
		go func() {
			ev, err := ps[1].Barrier("x")
			ch <- out{ev, err}
		}()
		time.Sleep(5 * time.Millisecond)
		ev, err := ps[0].Barrier("x")
		if err != nil {
			t.Fatal(err)
		}
		o := <-ch
		if o.err != nil {
			t.Fatal(o.err)
		}
		for _, got := range [][]FaultEvent{ev, o.ev} {
			if len(got) != 2 || got[0].Proc != 0 || got[1].Proc != 1 {
				t.Errorf("merged events = %v, want sorted [0 1]", got)
			}
		}
	})
}

func TestDoneReleasesBarrier(t *testing.T) {
	eachBackend(t, func(t *testing.T, b Backend) {
		m, ps := ranks(t, Config{P: 2, Backend: b}, nil)
		done := make(chan error, 1)
		go func() {
			_, err := ps[0].Barrier("late")
			done <- err
		}()
		time.Sleep(10 * time.Millisecond)
		m.net.retire() // rank 1 exits without reaching the barrier
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("barrier not released by a retiring rank")
		}
	})
}

// blocked runs each call on a goroutine of its own and waits for all of
// their errors, failing the test unless each error contains want within 2 s.
func blocked(t *testing.T, want string, calls ...func() error) {
	t.Helper()
	errc := make(chan error, len(calls))
	for _, call := range calls {
		go func() { errc <- call() }()
	}
	for range calls {
		select {
		case err := <-errc:
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("err = %v, want %q", err, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("a blocked call did not return %q", want)
		}
	}
}

// TestContextCancelAbortsRecvAndBarrier: rank 0 waits in a receive and ranks
// 1 and 2 (the generation's first arrival and a later one) in a barrier that
// rank 0 never reaches; canceling the run's context aborts all three.
func TestContextCancelAbortsRecvAndBarrier(t *testing.T) {
	eachBackend(t, func(t *testing.T, b Backend) {
		_, ps := ranks(t, Config{P: 3, Backend: b}, nil)
		ctx, cancel := context.WithCancel(context.Background())
		withContext(ctx, ps)
		time.AfterFunc(10*time.Millisecond, cancel)
		blocked(t, "canceled",
			func() error { _, err := ps[0].Recv(1, "never"); return err },
			func() error { _, err := ps[1].Barrier("stuck"); return err },
			func() error { time.Sleep(5 * time.Millisecond); _, err := ps[2].Barrier("stuck"); return err },
		)
	})
}

// TestTimeoutsAbortRecvAndBarrier is the same standoff with no
// cancellation: RecvTimeout ends the receive and the barrier on both
// backends.
func TestTimeoutsAbortRecvAndBarrier(t *testing.T) {
	eachBackend(t, func(t *testing.T, b Backend) {
		_, ps := ranks(t, Config{P: 3, Backend: b, RecvTimeout: 30 * time.Millisecond}, nil)
		blocked(t, "timed out",
			func() error { _, err := ps[0].Recv(1, "never"); return err },
			func() error { _, err := ps[1].Barrier("stuck"); return err },
			func() error { time.Sleep(5 * time.Millisecond); _, err := ps[2].Barrier("stuck"); return err },
		)
	})
}

// TestBarrierPhaseMismatch: every rank crosses one barrier generation at
// one phase. A rank that arrives at another phase than the generation's
// first arrival fails at once with both phases named and does not join the
// generation, which a later arrival at the right phase then completes;
// under Run the mismatch aborts the run.
func TestBarrierPhaseMismatch(t *testing.T) {
	eachBackend(t, func(t *testing.T, b Backend) {
		t.Run("direct", func(t *testing.T) {
			_, ps := ranks(t, Config{P: 2, Backend: b}, nil)
			first := make(chan error, 1)
			go func() {
				_, err := ps[0].Barrier("mul")
				first <- err
			}()
			time.Sleep(5 * time.Millisecond) // rank 0 arrives first
			blocked(t, `crossed barrier "interp" while the generation crossed "mul"`,
				func() error { _, err := ps[1].Barrier("interp"); return err })
			if _, err := ps[1].Barrier("mul"); err != nil {
				t.Fatal(err)
			}
			if err := <-first; err != nil {
				t.Fatal(err)
			}
		})
		t.Run("run", func(t *testing.T) {
			m, err := New(Config{P: 3, Backend: b}, nil)
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			_, err = m.Run(func(p *Proc) error {
				phase := "mul"
				if p.ID() == 2 {
					phase = "interp"
				}
				_, err := p.Barrier(phase)
				return err
			})
			if elapsed := time.Since(start); elapsed > time.Second {
				t.Errorf("Run returned after %v, want under 1s", elapsed)
			}
			if err == nil || !strings.Contains(err.Error(), `"mul"`) || !strings.Contains(err.Error(), `"interp"`) {
				t.Fatalf("err = %v, want a protocol error naming both phases", err)
			}
		})
	})
}

// TestTrafficAfterRunFails: a Proc kept past Run can no longer send,
// receive or cross a barrier. Each call fails at once instead of queueing
// into a FIFO the run has handed back, succeeding alone at a barrier, or
// waiting out RecvTimeout.
func TestTrafficAfterRunFails(t *testing.T) {
	eachBackend(t, func(t *testing.T, b Backend) {
		m, err := New(Config{P: 2, Backend: b}, nil)
		if err != nil {
			t.Fatal(err)
		}
		kept := make([]*Proc, 2)
		if _, err := m.Run(func(p *Proc) error {
			kept[p.ID()] = p
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		p := kept[0]
		for _, tc := range []struct {
			name string
			call func() error
		}{
			{"Send", func() error { return p.Send(1, "late", words(1)) }},
			{"Recv", func() error { _, err := p.Recv(1, "late"); return err }},
			{"RecvDeadline", func() error { _, _, err := p.RecvDeadline(1, "late", p.Clock()+1); return err }},
			{"Barrier", func() error { _, err := p.Barrier("late"); return err }},
		} {
			t.Run(tc.name, func(t *testing.T) { blocked(t, "after Run returned", tc.call) })
		}
	})
}

// TestUndeliveredMessageFailsRun: a run whose ranks all return nil fails
// when a message was sent and never received, naming its sender, receiver
// and tag. A deadline receive that gave up (wall: the late report arrives
// after the receiver stopped waiting; sim: the late report is taken and
// dropped) exempts one message, not more.
func TestUndeliveredMessageFailsRun(t *testing.T) {
	eachBackend(t, func(t *testing.T, b Backend) {
		// lateReport has rank 0 report to rank 1 after rank 1's deadline
		// receive gave up on it (on sim the receive waits for the report);
		// with stray, rank 2 also sends rank 0 a message nobody receives.
		lateReport := func(stray bool) func(p *Proc) error {
			gaveUp := make(chan struct{})
			return func(p *Proc) error {
				switch p.ID() {
				case 0:
					if b == BackendWall {
						<-gaveUp
					}
					p.Work(10) // sim: stamp the report past the deadline
					return p.Send(1, "late", words(1))
				case 1:
					_, ok, err := p.RecvDeadline(0, "late", 5)
					if ok {
						t.Error("late report accepted")
					}
					close(gaveUp)
					return err
				case 2:
					if stray {
						return p.Send(0, "/y", words(1))
					}
				}
				return nil
			}
		}
		for _, tc := range []struct {
			name    string
			program func(p *Proc) error
			want    string // "" for a clean run
		}{
			{"delivered", func(p *Proc) error {
				if p.ID() == 0 {
					return p.Send(2, "x", words(1))
				}
				if p.ID() == 2 {
					_, err := p.Recv(0, "x")
					return err
				}
				return nil
			}, ""},
			{"stray send", func(p *Proc) error {
				if p.ID() == 1 {
					return p.Send(2, "/x", words(1))
				}
				return nil
			}, `proc 1 sent "/x" to proc 2, which never received it (protocol error)`},
			{"late report", lateReport(false), ""},
			// On wall, either leftover message may be the one named.
			{"stray after late report", lateReport(true), "which never received it (protocol error)"},
		} {
			t.Run(tc.name, func(t *testing.T) {
				m, err := New(Config{P: 3, Backend: b, Alpha: 1e-9, Beta: 1e-9, Gamma: 1, WallTimeDilation: time.Millisecond}, nil)
				if err != nil {
					t.Fatal(err)
				}
				_, err = m.Run(tc.program)
				switch {
				case tc.want == "" && err != nil:
					t.Fatalf("err = %v, want a clean run", err)
				case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
					t.Fatalf("err = %v, want %q", err, tc.want)
				}
			})
		}
	})
}

// TestCloseRecyclesOnlyEmptyChannels: closing a run's network hands a
// drained pair channel to the next network and drops one still holding an
// unreceived message (a late straggler report, say); the closed network
// still reports the pairs it used.
func TestCloseRecyclesOnlyEmptyChannels(t *testing.T) {
	eachBackend(t, func(t *testing.T, b Backend) {
		var pool chanPool // this test's own free list
		m, ps := ranks(t, Config{P: 2, Backend: b}, nil)
		m.net.free = &pool
		if err := ps[0].Send(1, "late", words(1)); err != nil {
			t.Fatal(err)
		}
		if err := ps[1].Send(0, "x", words(1)); err != nil {
			t.Fatal(err)
		}
		if _, err := ps[0].Recv(1, "x"); err != nil {
			t.Fatal(err)
		}
		late, drained := m.net.pair(0, 1), m.net.pair(1, 0)
		for i := 0; i < 2; i++ { // a second close must not hand the channel out twice
			m.net.close()
		}
		if got := m.net.used; got != 2 {
			t.Errorf("closed network reports %d channels, want 2", got)
		}
		next := newNetwork(4, &pool)
		reused := 0
		for from := 0; from < 4; from++ {
			for to := 0; to < 4; to++ {
				switch next.pair(from, to) {
				case late:
					t.Fatalf("pair %d->%d got the channel closed with a message in it", from, to)
				case drained:
					reused++
				}
			}
		}
		if reused != 1 {
			t.Errorf("the drained channel went to %d pairs of the next network, want 1", reused)
		}
		if len(late) != 1 {
			t.Errorf("dropped channel holds %d messages, want its 1", len(late))
		}
	})
}

// TestCompletedRecvsReleaseTimers: a completed receive must not leave its
// timeout armed. Under go 1.22 timer semantics a time.After per Recv stays
// live for the whole RecvTimeout, so 10k receives would pin megabytes.
func TestCompletedRecvsReleaseTimers(t *testing.T) {
	eachBackend(t, func(t *testing.T, b Backend) {
		_, ps := ranks(t, Config{P: 2, Backend: b}, nil)
		const n = 10000
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			if err := ps[0].Send(1, "t", words(1)); err != nil {
				t.Fatal(err)
			}
			if _, err := ps[1].Recv(0, "t"); err != nil {
				t.Fatal(err)
			}
			if err := ps[1].Send(0, "d", words(1)); err != nil {
				t.Fatal(err)
			}
			if _, _, err := ps[0].RecvDeadline(1, "d", 1e9); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 256<<10 {
			t.Errorf("live heap grew by %d bytes over %d completed receives, want <= 256 KiB", grown, 2*n)
		}
	})
}

// TestQueuedRecvAllocs: a receive that finds its message queued takes it
// without arming the rank's timer, so it allocates nothing; it still
// advances the sim clock to the message's stamp and still asserts the tag.
func TestQueuedRecvAllocs(t *testing.T) {
	eachBackend(t, func(t *testing.T, b Backend) {
		_, ps := ranks(t, Config{P: 2, Backend: b, Alpha: 1, Beta: 1, Gamma: 1}, nil)
		ps[0].Work(38)
		if err := ps[0].Send(1, "q", words(1)); err != nil {
			t.Fatal(err)
		}
		if _, err := ps[1].Recv(0, "q"); err != nil {
			t.Fatal(err)
		}
		if now := ps[1].Clock(); b == BackendSim && now != 40 {
			t.Errorf("receiver clock = %v after a queued receive, want 40", now)
		}
		if err := ps[0].Send(1, "alpha", words(1)); err != nil {
			t.Fatal(err)
		}
		if _, err := ps[1].Recv(0, "beta"); err == nil || !strings.Contains(err.Error(), "expected tag") {
			t.Fatalf("queued tag mismatch err = %v", err)
		}
		msg := words(1) // made once: a fresh vector is the caller's allocation
		allocs := testing.AllocsPerRun(100, func() {
			if err := ps[0].Send(1, "q", msg); err != nil {
				t.Fatal(err)
			}
			if _, err := ps[1].Recv(0, "q"); err != nil {
				t.Fatal(err)
			}
			if err := ps[0].Send(1, "d", msg); err != nil {
				t.Fatal(err)
			}
			if _, _, err := ps[1].RecvDeadline(0, "d", 1e9); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("queued send/receive round allocates %.1f times, want 0", allocs)
		}
	})
}

// TestWaitingRecvAndBarrierAllocs: a receive or a barrier that has to wait
// re-arms the rank's one timer and reuses the previous barrier
// generation's state, so after the rank's first wait neither allocates. A
// helper goroutine sends (or arrives) a little after the waiter blocks.
func TestWaitingRecvAndBarrierAllocs(t *testing.T) {
	eachBackend(t, func(t *testing.T, b Backend) {
		_, ps := ranks(t, Config{P: 2, Backend: b}, nil)
		msg := words(1)
		kick := make(chan bool)
		errs := make(chan error, 1)
		go func() {
			for send := range kick {
				time.Sleep(200 * time.Microsecond)
				var err error
				if send {
					err = ps[0].Send(1, "w", msg)
				} else {
					_, err = ps[0].Barrier("b")
				}
				errs <- err
			}
		}()
		defer close(kick)
		round := func() {
			for _, send := range []bool{true, false} {
				kick <- send
				var err error
				if send {
					_, err = ps[1].Recv(0, "w")
				} else {
					_, err = ps[1].Barrier("b")
				}
				if err == nil {
					err = <-errs
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		round() // the waiter's first waits make its timer
		// The helper waits too, as the barrier's first arrival, whenever
		// the waiter is slow to get there; make its timer now as well.
		ps[0].timer.arm(time.Hour)
		ps[0].timer.stop()
		if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
			t.Errorf("a waiting receive and barrier allocate %.1f times per round, want 0", allocs)
		}
	})
}

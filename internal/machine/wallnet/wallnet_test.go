package wallnet

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/machine/transport"
)

type words int64

func (w words) Words() int64 { return int64(w) }

func open2(t *testing.T, ctx context.Context, cfg Config) (*Net, transport.Endpoint, transport.Endpoint) {
	t.Helper()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e0, err := n.Open(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := n.Open(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	return n, e0, e1
}

func TestSendRecvAndTagAssert(t *testing.T) {
	_, e0, e1 := open2(t, context.Background(), Config{P: 2})
	if err := e0.Send(1, "x", words(3)); err != nil {
		t.Fatal(err)
	}
	got, err := e1.Recv(0, "x")
	if err != nil {
		t.Fatal(err)
	}
	if got.(words) != 3 {
		t.Errorf("payload = %v", got)
	}
	if err := e0.Send(1, "alpha", words(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Recv(0, "beta"); err == nil || !strings.Contains(err.Error(), "expected tag") {
		t.Fatalf("tag mismatch err = %v", err)
	}
}

func TestRecvTimesOut(t *testing.T) {
	_, _, e1 := open2(t, context.Background(), Config{P: 2, RecvTimeout: 30 * time.Millisecond})
	if _, err := e1.Recv(0, "never"); err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("err = %v", err)
	}
}

func TestContextCancelAbortsRecvAndBarrier(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	_, e0, e1 := open2(t, ctx, Config{P: 2})
	errc := make(chan error, 2)
	go func() {
		_, err := e0.Recv(1, "never")
		errc <- err
	}()
	go func() {
		_, err := e1.Barrier("stuck", nil)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errc:
			if err == nil || !strings.Contains(err.Error(), "canceled") {
				t.Fatalf("err = %v", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("blocked call not aborted by cancel")
		}
	}
}

func TestRecvDeadline(t *testing.T) {
	_, e0, e1 := open2(t, context.Background(), Config{P: 2, TimeDilation: time.Millisecond})
	// On time: the message is already queued well before the deadline.
	if err := e0.Send(1, "d", words(1)); err != nil {
		t.Fatal(err)
	}
	_, ok, err := e1.RecvDeadline(0, "d", 10_000) // 10s of model time
	if err != nil || !ok {
		t.Fatalf("on-time message rejected: ok=%v err=%v", ok, err)
	}
	// Missed: nothing is sent, deadline 30ms from the start fires.
	start := time.Now()
	_, ok, err = e1.RecvDeadline(0, "d", 30)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("deadline with no sender should miss")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("deadline wait did not use the real deadline")
	}
}

// TestRecvDeadlineQueuedBeforePassedDeadline sends each message well before
// its deadline but receives it only after the deadline has passed: the
// message was on time, so it must be reported ok every time, however the
// expired timer and the queued message race.
func TestRecvDeadlineQueuedBeforePassedDeadline(t *testing.T) {
	n, e0, e1 := open2(t, context.Background(), Config{P: 2, TimeDilation: time.Millisecond})
	for i := 0; i < 32; i++ {
		if err := e0.Send(1, "d", words(i)); err != nil {
			t.Fatal(err)
		}
		deadline := e1.Now() + 1 // 1 ms of real time from now, after the send
		for time.Since(n.start) <= time.Duration(deadline*float64(time.Millisecond)) {
			time.Sleep(100 * time.Microsecond)
		}
		got, ok, err := e1.RecvDeadline(0, "d", deadline)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("iteration %d: message sent before the deadline reported late", i)
		}
		if got.(words) != words(i) {
			t.Fatalf("iteration %d: payload %v", i, got)
		}
	}
}

func TestBarrierMergesAndSorts(t *testing.T) {
	_, e0, e1 := open2(t, context.Background(), Config{P: 2})
	type out struct {
		ev  []transport.FaultEvent
		err error
	}
	ch := make(chan out, 2)
	go func() {
		ev, err := e1.Barrier("x", []transport.FaultEvent{{Proc: 1, Phase: "x"}})
		ch <- out{ev, err}
	}()
	ev, err := e0.Barrier("x", []transport.FaultEvent{{Proc: 0, Phase: "x"}})
	if err != nil {
		t.Fatal(err)
	}
	o := <-ch
	if o.err != nil {
		t.Fatal(o.err)
	}
	for _, got := range [][]transport.FaultEvent{ev, o.ev} {
		if len(got) != 2 || got[0].Proc != 0 || got[1].Proc != 1 {
			t.Errorf("merged events = %v, want sorted [0 1]", got)
		}
	}
}

func TestDoneReleasesBarrier(t *testing.T) {
	_, e0, e1 := open2(t, context.Background(), Config{P: 2})
	done := make(chan error, 1)
	go func() {
		_, err := e0.Barrier("late", nil)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	e1.Done()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("barrier not released by Done")
	}
}

func TestDilationSleepsWorkAndConvertsNow(t *testing.T) {
	n, err := New(Config{P: 1, TimeDilation: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := n.Open(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ep.ElapseWork(50) // 50 model units = 50ms of real time
	if now := ep.Now(); now < 50 {
		t.Errorf("Now() = %v model units after charging 50", now)
	}
}

// TestDilationDoesNotAccumulateLateness charges 400 model units of 100µs
// one at a time. Each sleep may fire late (about a millisecond on some
// hosts, which made 400 of them take over 400ms); the overrun is made up
// on later charges, so the whole run stays near its 40ms of charges,
// and never below them.
func TestDilationDoesNotAccumulateLateness(t *testing.T) {
	n, err := New(Config{P: 1, TimeDilation: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := n.Open(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	start := ep.Now()
	for i := 0; i < 400; i++ {
		ep.ElapseWork(1)
	}
	if got := ep.Now() - start; got < 400 || got > 1400 {
		t.Errorf("400 one-unit charges took %.0f units (of 100µs), want [400, 1400]", got)
	}
}

func TestFreeRunningNowIsSeconds(t *testing.T) {
	n, err := New(Config{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := n.Open(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ep.Elapse(1e9) // free-running: charges are not slept
	if now := ep.Now(); now > 60 {
		t.Errorf("free-running Now() = %v, should be wall seconds", now)
	}
}

func TestSendBackpressureUnblocksOnRecv(t *testing.T) {
	_, e0, e1 := open2(t, context.Background(), Config{P: 2, ChannelCap: 1})
	if err := e0.Send(1, "x", words(1)); err != nil {
		t.Fatal(err)
	}
	sent := make(chan error, 1)
	go func() { sent <- e0.Send(1, "x", words(1)) }()
	time.Sleep(10 * time.Millisecond)
	if _, err := e1.Recv(0, "x"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-sent:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("full-buffer send did not unblock after a receive")
	}
}

// TestQueuedRecvAllocs: a receive that finds its message queued takes
// it without arming the RecvTimeout timer, so it allocates nothing.
// (TestSendRecvAndTagAssert covers the tag check on a queued message.)
func TestQueuedRecvAllocs(t *testing.T) {
	_, e0, e1 := open2(t, context.Background(), Config{P: 2})
	allocs := testing.AllocsPerRun(100, func() {
		if err := e0.Send(1, "q", words(1)); err != nil {
			t.Fatal(err)
		}
		if _, err := e1.Recv(0, "q"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("queued send/receive round allocates %.1f times, want 0", allocs)
	}
}

// TestCloseRecyclesOnlyEmptyChannels: Close hands a drained pair channel to
// the next net and drops one still holding an unreceived message (a late
// straggler report, say); the closed net still reports the pairs it used.
func TestCloseRecyclesOnlyEmptyChannels(t *testing.T) {
	const capacity = 3 // no other test uses it, so its free list is this test's own
	a, a0, a1 := open2(t, context.Background(), Config{P: 2, ChannelCap: capacity})
	if err := a0.Send(1, "late", words(1)); err != nil {
		t.Fatal(err)
	}
	if err := a1.Send(0, "x", words(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := a0.Recv(1, "x"); err != nil {
		t.Fatal(err)
	}
	late, drained := a.pairs.For(0, 1), a.pairs.For(1, 0)
	for i := 0; i < 2; i++ { // a second Close must not hand the channel out twice
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.AllocatedChannels(); got != 2 {
		t.Errorf("closed net reports %d channels, want 2", got)
	}
	b, err := New(Config{P: 4, ChannelCap: capacity})
	if err != nil {
		t.Fatal(err)
	}
	reused := 0
	for from := 0; from < 4; from++ {
		for to := 0; to < 4; to++ {
			switch b.pairs.For(from, to) {
			case late:
				t.Fatalf("pair %d->%d got the channel closed with a message in it", from, to)
			case drained:
				reused++
			}
		}
	}
	if reused != 1 {
		t.Errorf("the drained channel went to %d pairs of the next net, want 1", reused)
	}
	if len(late) != 1 {
		t.Errorf("dropped channel holds %d messages, want its 1", len(late))
	}
}

// TestWaitingRecvAndBarrierAllocs: a receive or a barrier that has to wait
// re-arms the endpoint's one timer and reuses the previous barrier
// generation's state, so after the endpoint's first wait neither allocates.
// A helper goroutine sends (or arrives) a little after the waiter blocks.
func TestWaitingRecvAndBarrierAllocs(t *testing.T) {
	_, e0, e1 := open2(t, context.Background(), Config{P: 2})
	var msg transport.Payload = words(1)
	kick := make(chan bool)
	errs := make(chan error, 1)
	go func() {
		for send := range kick {
			time.Sleep(200 * time.Microsecond)
			var err error
			if send {
				err = e0.Send(1, "w", msg)
			} else {
				_, err = e0.Barrier("b", nil)
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
				_, err = e1.Recv(0, "w")
			} else {
				_, err = e1.Barrier("b", nil)
			}
			if err == nil {
				err = <-errs
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	round() // the endpoints' first waits make their timers
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Errorf("a waiting receive and barrier allocate %.1f times per round, want 0", allocs)
	}
}

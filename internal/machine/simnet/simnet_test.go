package simnet

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/machine/transport"
)

type words int64

func (w words) Words() int64 { return int64(w) }

func open2(t *testing.T, cfg Config) (*Net, transport.Endpoint, transport.Endpoint) {
	t.Helper()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e0, err := n.Open(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := n.Open(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return n, e0, e1
}

func TestClockStampsAndRecvSync(t *testing.T) {
	_, e0, e1 := open2(t, Config{P: 2})
	e0.Elapse(50)
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
	// The receiver's clock jumps to the sender's stamp, not beyond.
	if e1.Now() != 50 {
		t.Errorf("receiver clock = %v, want 50", e1.Now())
	}
	// A receiver already past the stamp keeps its own clock.
	e0.Elapse(10) // clock 60
	if err := e0.Send(1, "y", words(1)); err != nil {
		t.Fatal(err)
	}
	e1.Elapse(100) // clock 150
	if _, err := e1.Recv(0, "y"); err != nil {
		t.Fatal(err)
	}
	if e1.Now() != 150 {
		t.Errorf("receiver clock = %v, want 150", e1.Now())
	}
}

func TestDeadlineDropsLateMessage(t *testing.T) {
	_, e0, e1 := open2(t, Config{P: 2, RecvTimeout: 50 * time.Millisecond})
	e0.Elapse(700) // stamp after the deadline
	if err := e0.Send(1, "d", words(2)); err != nil {
		t.Fatal(err)
	}
	_, ok, err := e1.RecvDeadline(0, "d", 500)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("late message should be rejected")
	}
	if e1.Now() != 500 {
		t.Errorf("clock should advance to the deadline, got %v", e1.Now())
	}
	// The late message was consumed, not left queued.
	if _, err := e1.Recv(0, "d"); err == nil {
		t.Fatal("expected timeout: the late message must have been dropped")
	}
	_ = e0
}

func TestFullChannelIsProtocolError(t *testing.T) {
	_, e0, _ := open2(t, Config{P: 2, ChannelCap: 1})
	if err := e0.Send(1, "x", words(1)); err != nil {
		t.Fatal(err)
	}
	if err := e0.Send(1, "x", words(1)); err == nil {
		t.Fatal("second send into cap-1 channel should fail, not block")
	}
}

func TestBarrierMergesAndSorts(t *testing.T) {
	n, e0, e1 := open2(t, Config{P: 2})
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
	_ = n
}

func TestDoneReleasesBarrier(t *testing.T) {
	_, e0, e1 := open2(t, Config{P: 2})
	done := make(chan error, 1)
	go func() {
		_, err := e0.Barrier("late", nil)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	e1.Done() // rank 1 exits without reaching the barrier
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("barrier not released by Done")
	}
}

func TestContextCancelAbortsRecv(t *testing.T) {
	n, err := New(Config{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	e1, err := n.Open(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := e1.Recv(0, "never")
		errc <- err
	}()
	cancel()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("expected cancellation error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("recv not aborted by cancel")
	}
}

func TestLazyChannels(t *testing.T) {
	n, e0, _ := open2(t, Config{P: 8})
	if n.AllocatedChannels() != 0 {
		t.Fatalf("allocated %d channels before any send", n.AllocatedChannels())
	}
	if err := e0.Send(1, "x", words(1)); err != nil {
		t.Fatal(err)
	}
	if n.AllocatedChannels() != 1 {
		t.Fatalf("allocated %d channels after one pair used", n.AllocatedChannels())
	}
}

// TestCompletedRecvsReleaseTimers: a completed receive must not leave its
// timeout armed. Under go 1.22 timer semantics a time.After per Recv stays
// live for the whole RecvTimeout, so 10k receives would pin megabytes.
func TestCompletedRecvsReleaseTimers(t *testing.T) {
	_, e0, e1 := open2(t, Config{P: 2})
	const n = 10000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := e0.Send(1, "t", words(1)); err != nil {
			t.Fatal(err)
		}
		if _, err := e1.Recv(0, "t"); err != nil {
			t.Fatal(err)
		}
		if err := e1.Send(0, "d", words(1)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := e0.RecvDeadline(1, "d", 1e18); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 256<<10 {
		t.Errorf("live heap grew by %d bytes over %d completed receives, want <= 256 KiB", grown, 2*n)
	}
}

// TestQueuedRecvAllocs: a receive that finds its message queued takes
// it without arming the RecvTimeout timer, so it allocates nothing, and it
// still advances the clock to the message's stamp and still asserts the
// tag.
func TestQueuedRecvAllocs(t *testing.T) {
	_, e0, e1 := open2(t, Config{P: 2})
	e0.Elapse(40)
	if err := e0.Send(1, "q", words(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Recv(0, "q"); err != nil {
		t.Fatal(err)
	}
	if e1.Now() != 40 {
		t.Errorf("receiver clock = %v after a queued receive, want 40", e1.Now())
	}
	if err := e0.Send(1, "alpha", words(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Recv(0, "beta"); err == nil || !strings.Contains(err.Error(), "expected tag") {
		t.Fatalf("queued tag mismatch err = %v", err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := e0.Send(1, "q", words(1)); err != nil {
			t.Fatal(err)
		}
		if _, err := e1.Recv(0, "q"); err != nil {
			t.Fatal(err)
		}
		if err := e0.Send(1, "d", words(1)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := e1.RecvDeadline(0, "d", 1e18); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("queued send/receive round allocates %.1f times, want 0", allocs)
	}
}

// TestCloseRecyclesOnlyEmptyChannels: Close hands a drained pair channel to
// the next net and drops one still holding an unreceived message; the
// closed net still reports the pairs it used.
func TestCloseRecyclesOnlyEmptyChannels(t *testing.T) {
	const capacity = 3 // no other test uses it, so its free list is this test's own
	a, a0, a1 := open2(t, Config{P: 2, ChannelCap: capacity})
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
	_, e0, e1 := open2(t, Config{P: 2})
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

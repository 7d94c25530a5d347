// Package wallnet is the wall-clock in-process transport backend: the same
// tagged point-to-point protocol as simnet, but time is real. Now() measures
// time.Since(start), RecvDeadline waits until a real deadline, and
// context.Context cancellation aborts blocked Send/Recv/Barrier calls —
// this is the backend that makes wall-clock benchmarking of FT overheads
// and real-time straggler experiments possible without touching algorithm
// code.
//
// Model units versus real time: with TimeDilation zero (the default) the
// backend is free-running — Elapse/ElapseWork are no-ops (real computation
// already costs real time) and one model unit is one second, so deadlines
// like "Clock()+slack" read as seconds of slack. With TimeDilation set,
// every model unit charged via Elapse/ElapseWork is slept off at that real
// duration and Now() converts elapsed real time back into model units, so
// virtual-machine experiments (straggler slack in cost units, speed-factor
// delays) transfer to the wall clock with their ratios intact. A sleep
// that overruns (timers can fire a millisecond late) is made up on the
// rank's next charge, so the lateness does not accumulate over charges.
//
// Unlike simnet, Send applies real backpressure: a full per-pair buffer
// blocks the sender (under context cancellation) instead of failing, which
// is how a real network behaves.
package wallnet

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/machine/transport"
)

// Config sizes the wall-clock network.
type Config struct {
	P int // processor count

	// ChannelCap is the per-pair in-flight message capacity (default 128);
	// a full buffer blocks the sender rather than erroring. Channels are
	// allocated lazily per (sender, receiver) pair, as on simnet.
	ChannelCap int

	// RecvTimeout bounds how long Recv and Barrier wait before declaring
	// the protocol dead; zero means 30 seconds.
	RecvTimeout time.Duration

	// TimeDilation is the real duration of one model unit. Zero means
	// free-running: charges are not slept and Now() is in seconds.
	TimeDilation time.Duration
}

func (c Config) withDefaults() Config {
	if c.ChannelCap == 0 {
		c.ChannelCap = 128
	}
	if c.RecvTimeout == 0 {
		c.RecvTimeout = 30 * time.Second
	}
	return c
}

type message struct {
	from    int
	tag     string
	payload transport.Payload
	at      time.Time // real arrival stamp, for deadline accept/reject
}

// spare recycles the per-pair channels of closed nets.
var spare transport.FreeChans[message]

// Net is the wall-clock transport. Create with New; a Net is single-use.
type Net struct {
	cfg   Config
	start time.Time
	pairs *transport.Pairs[message]

	mu     sync.Mutex
	active int
	cur    *barState
	idle   *barState // a fully read generation's state, reused by the next
}

// barState is one barrier generation. Waiters hold the pointer; release
// sends one token per arrival on the buffered release channel. Events are
// sorted before the tokens go out and read only after one is received (the
// send is the happens-before edge). Once every waiter has read the events
// the state, channel included, is reused by a later generation; a waiter
// that gave up (cancellation, timeout) never reads, so its generation's
// state is simply dropped.
type barState struct {
	arrived int
	readers int // released waiters yet to read the events
	events  []transport.FaultEvent
	release chan struct{}
}

// New creates the wall-clock transport for cfg.P processors. The run's
// start time (the zero of Now) is stamped here.
func New(cfg Config) (*Net, error) {
	cfg = cfg.withDefaults()
	if cfg.P < 1 {
		return nil, fmt.Errorf("wallnet: need P >= 1, got %d", cfg.P)
	}
	return &Net{
		cfg:    cfg,
		start:  time.Now(),
		pairs:  transport.NewPairs(cfg.P, cfg.ChannelCap, &spare),
		active: cfg.P,
	}, nil
}

// P implements transport.Transport.
func (n *Net) P() int { return n.cfg.P }

// Open implements transport.Transport. The context cancels blocked
// Send/Recv/Barrier calls and aborts dilated sleeps.
func (n *Net) Open(ctx context.Context, rank int) (transport.Endpoint, error) {
	if rank < 0 || rank >= n.cfg.P {
		return nil, fmt.Errorf("wallnet: rank %d out of range [0,%d)", rank, n.cfg.P)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return &endpoint{n: n, rank: rank, ctx: ctx}, nil
}

// Close implements transport.Transport: it hands the run's empty per-pair
// channels to later nets; a channel still holding a late message is
// dropped. Call it only after every endpoint is done.
func (n *Net) Close() error {
	n.pairs.Release()
	return nil
}

// AllocatedChannels counts the per-pair channels this net has used (test
// hook for the lazy-allocation contract).
func (n *Net) AllocatedChannels() int { return n.pairs.Used() }

// unit returns the real duration of one model unit.
func (n *Net) unit() time.Duration {
	if n.cfg.TimeDilation > 0 {
		return n.cfg.TimeDilation
	}
	return time.Second
}

// maybeRelease completes the current barrier once every active endpoint has
// arrived. Called with n.mu held.
func (n *Net) maybeRelease() {
	if n.cur == nil || n.cur.arrived < n.active {
		return
	}
	st := n.cur
	n.cur = nil
	slices.SortFunc(st.events, func(a, b transport.FaultEvent) int { return cmp.Compare(a.Proc, b.Proc) })
	st.readers = st.arrived
	for i := 0; i < st.arrived; i++ {
		select {
		case st.release <- struct{}{}:
		default:
			panic("wallnet: barrier release buffer full") // it holds one token per rank
		}
	}
}

type endpoint struct {
	n    *Net
	rank int
	ctx  context.Context
	// over is how far this rank's dilated sleeps have run past their
	// charges; the next Elapse sleeps that much less. Only the rank's own
	// goroutine charges time.
	over time.Duration
	// timer times every wait of the rank's goroutine: receives, deadline
	// receives, barriers and dilated sleeps.
	timer transport.WaitTimer
}

func (ep *endpoint) Rank() int { return ep.rank }

func (ep *endpoint) P() int { return ep.n.cfg.P }

// Now returns elapsed real time in model units (seconds when free-running).
func (ep *endpoint) Now() float64 {
	return float64(time.Since(ep.n.start)) / float64(ep.n.unit())
}

// Elapse sleeps off the charge when dilation is configured, less what
// earlier sleeps overran, so the rank's real time stays at or just past its
// total charge; free-running time only advances by actually doing things.
func (ep *endpoint) Elapse(units float64) {
	if ep.n.cfg.TimeDilation <= 0 || units <= 0 {
		return
	}
	d := time.Duration(units*float64(ep.n.cfg.TimeDilation)) - ep.over
	if d <= 0 {
		ep.over = -d
		return
	}
	start := time.Now()
	select {
	case <-ep.timer.Arm(d):
	case <-ep.ctx.Done():
	}
	ep.timer.Stop()
	ep.over = max(time.Since(start)-d, 0)
}

func (ep *endpoint) ElapseWork(units float64) { ep.Elapse(units) }

// Send blocks when the per-pair buffer is full (real backpressure), under
// context cancellation.
func (ep *endpoint) Send(to int, tag string, payload transport.Payload) error {
	if to < 0 || to >= ep.n.cfg.P {
		return fmt.Errorf("wallnet: proc %d sending to nonexistent proc %d", ep.rank, to)
	}
	msg := message{from: ep.rank, tag: tag, payload: payload, at: time.Now()}
	select {
	case ep.n.pairs.For(ep.rank, to) <- msg:
		return nil
	case <-ep.ctx.Done():
		return fmt.Errorf("wallnet: proc %d send to %d canceled: %w", ep.rank, to, ep.ctx.Err())
	}
}

// Recv takes the next message from `from` and asserts its tag. A message
// already queued is taken at once; only an empty queue arms the endpoint's
// timer for RecvTimeout.
func (ep *endpoint) Recv(from int, tag string) (transport.Payload, error) {
	if from < 0 || from >= ep.n.cfg.P {
		return nil, fmt.Errorf("wallnet: proc %d receiving from nonexistent proc %d", ep.rank, from)
	}
	ch := ep.n.pairs.For(from, ep.rank)
	var msg message
	select {
	case msg = <-ch:
	default:
		var err error
		select {
		case msg = <-ch:
		case <-ep.ctx.Done():
			err = fmt.Errorf("wallnet: proc %d recv from %d canceled: %w", ep.rank, from, ep.ctx.Err())
		case <-ep.timer.Arm(ep.n.cfg.RecvTimeout):
			err = fmt.Errorf("wallnet: proc %d timed out waiting for tag %q from %d", ep.rank, tag, from)
		}
		ep.timer.Stop()
		if err != nil {
			return nil, err
		}
	}
	if msg.tag != tag {
		return nil, fmt.Errorf("wallnet: proc %d expected tag %q from %d, got %q", ep.rank, tag, from, msg.tag)
	}
	return msg.payload, nil
}

// RecvDeadline waits until a message arrives or the real deadline passes.
// A message stamped after the deadline is consumed and discarded, like
// simnet; if the deadline fires with nothing queued, ok=false is returned
// and the late message (if any ever comes) stays queued for the run's end.
// A message already queued is taken before the timer is armed: once the
// deadline has passed the timer fires at once, and select would otherwise
// pick it over an on-time message half the time.
func (ep *endpoint) RecvDeadline(from int, tag string, deadline float64) (transport.Payload, bool, error) {
	if from < 0 || from >= ep.n.cfg.P {
		return nil, false, fmt.Errorf("wallnet: proc %d receiving from nonexistent proc %d", ep.rank, from)
	}
	target := ep.n.start.Add(time.Duration(deadline * float64(ep.n.unit())))
	ch := ep.n.pairs.For(from, ep.rank)
	select {
	case msg := <-ch:
		return ep.judge(msg, from, tag, target)
	default:
	}
	defer ep.timer.Stop()
	select {
	case msg := <-ch:
		return ep.judge(msg, from, tag, target)
	case <-ep.timer.Arm(time.Until(target)):
		return nil, false, nil
	case <-ep.ctx.Done():
		return nil, false, fmt.Errorf("wallnet: proc %d recv from %d canceled: %w", ep.rank, from, ep.ctx.Err())
	}
}

// judge checks a RecvDeadline message's tag and reports it on time unless
// it was stamped after the deadline.
func (ep *endpoint) judge(msg message, from int, tag string, target time.Time) (transport.Payload, bool, error) {
	if msg.tag != tag {
		return nil, false, fmt.Errorf("wallnet: proc %d expected tag %q from %d, got %q", ep.rank, tag, from, msg.tag)
	}
	if msg.at.After(target) {
		return nil, false, nil
	}
	return msg.payload, true, nil
}

// Barrier joins the current generation and blocks until every active
// endpoint arrives, the context is canceled, or RecvTimeout declares the
// protocol dead.
func (ep *endpoint) Barrier(phase string, local []transport.FaultEvent) ([]transport.FaultEvent, error) {
	n := ep.n
	n.mu.Lock()
	if n.cur == nil {
		n.cur, n.idle = n.idle, nil
		if n.cur == nil {
			n.cur = &barState{release: make(chan struct{}, n.cfg.P)}
		}
	}
	st := n.cur
	st.arrived++
	st.events = append(st.events, local...)
	n.maybeRelease()
	n.mu.Unlock()

	var err error
	select {
	case <-st.release:
	case <-ep.ctx.Done():
		err = fmt.Errorf("wallnet: proc %d barrier %q canceled: %w", ep.rank, phase, ep.ctx.Err())
	case <-ep.timer.Arm(n.cfg.RecvTimeout):
		err = fmt.Errorf("wallnet: proc %d timed out in barrier %q", ep.rank, phase)
	}
	ep.timer.Stop()
	if err != nil {
		return nil, err
	}
	events := make([]transport.FaultEvent, len(st.events))
	copy(events, st.events)
	n.mu.Lock()
	st.readers--
	if st.readers == 0 {
		*st = barState{events: st.events[:0], release: st.release}
		n.idle = st
	}
	n.mu.Unlock()
	return events, nil
}

// Done retires the endpoint, releasing a barrier in progress if this was
// the last arrival it was waiting on.
func (ep *endpoint) Done() {
	n := ep.n
	n.mu.Lock()
	n.active--
	n.maybeRelease()
	n.mu.Unlock()
}

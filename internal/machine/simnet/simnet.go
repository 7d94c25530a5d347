// Package simnet is the deterministic virtual-clock transport backend — the
// seed simulator's network and clock, extracted behind the transport seam.
//
// Each endpoint carries a virtual clock (a float64 in model units) advanced
// only by Elapse/ElapseWork; messages are stamped with the sender's clock at
// send time and the receiver's clock advances to at least that stamp on
// receive, so the maximum clock at the end of a run is the critical-path
// runtime under the cost model, independent of real scheduling. Messages
// travel over per-pair FIFO channels made lazily on first use of a (sender,
// receiver) pair and recycled across nets once a run is over
// (transport.Pairs).
//
// The barrier is a global generation rendezvous: phase names only matter to
// the fault-injection decorator, not to the release logic. An endpoint that
// calls Done stops counting toward the rendezvous, releasing any barrier in
// progress (a processor that exits its program early must not deadlock the
// others).
package simnet

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/machine/transport"
)

// Config sizes the simulated network.
type Config struct {
	P int // processor count

	// ChannelCap is the per-pair in-flight message capacity (default 128).
	// Channels are allocated lazily on first use of a (sender, receiver)
	// pair, so a large-P machine pays only for the pairs its protocol
	// actually exercises (grid protocols use O(P·√P) of the P² pairs)
	// rather than O(P²·ChannelCap) setup memory.
	ChannelCap int

	// RecvTimeout guards against protocol deadlocks in tests; zero means
	// 30 seconds. This is a real-time guard on a virtual-time machine: a
	// correct protocol never hits it.
	RecvTimeout time.Duration
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
	arrive  float64 // sender clock after the transfer completed
}

// spare recycles the per-pair channels of closed nets.
var spare transport.FreeChans[message]

// Net is the virtual-clock transport. Create with New; a Net is single-use.
type Net struct {
	cfg   Config
	pairs *transport.Pairs[message]

	mu      sync.Mutex
	active  int
	barGen  int
	cur     *barState
	done    map[int]*barState
	idle    *barState // a fully read generation's state, reused by the next
	barCond *sync.Cond
}

// barState is the per-generation barrier rendezvous state; keeping it per
// generation prevents a fast processor's next barrier from clobbering the
// event list a slow waiter has not copied yet.
type barState struct {
	count   int // endpoints arrived
	readers int // endpoints yet to consume the released state
	events  []transport.FaultEvent
	max     float64
}

// New creates the virtual-clock transport for cfg.P processors. All P
// endpoints count as active from the start; Open hands them out.
func New(cfg Config) (*Net, error) {
	cfg = cfg.withDefaults()
	if cfg.P < 1 {
		return nil, fmt.Errorf("simnet: need P >= 1, got %d", cfg.P)
	}
	n := &Net{
		cfg:    cfg,
		pairs:  transport.NewPairs(cfg.P, cfg.ChannelCap, &spare),
		active: cfg.P,
		done:   map[int]*barState{},
	}
	n.barCond = sync.NewCond(&n.mu)
	return n, nil
}

// P implements transport.Transport.
func (n *Net) P() int { return n.cfg.P }

// Open implements transport.Transport. The context cancels blocked Recv
// calls; the barrier is released by Done (virtual time has no in-barrier
// cancellation point — a correct protocol's barriers always complete).
func (n *Net) Open(ctx context.Context, rank int) (transport.Endpoint, error) {
	if rank < 0 || rank >= n.cfg.P {
		return nil, fmt.Errorf("simnet: rank %d out of range [0,%d)", rank, n.cfg.P)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return &endpoint{n: n, rank: rank, ctx: ctx}, nil
}

// Close implements transport.Transport: it hands the run's empty per-pair
// channels to later nets. Call it only after every endpoint is done.
func (n *Net) Close() error {
	n.pairs.Release()
	return nil
}

// AllocatedChannels counts the per-pair channels this net has used (test
// hook for the lazy-allocation contract).
func (n *Net) AllocatedChannels() int { return n.pairs.Used() }

// maybeRelease completes the current barrier generation once every active
// endpoint has arrived. Called with n.mu held, from Barrier and from the
// active-count decrement when an endpoint retires mid-barrier.
func (n *Net) maybeRelease() {
	if n.cur == nil || n.cur.count < n.active {
		return
	}
	st := n.cur
	n.cur = nil
	slices.SortFunc(st.events, func(a, b transport.FaultEvent) int { return cmp.Compare(a.Proc, b.Proc) })
	st.readers = st.count
	n.done[n.barGen] = st
	n.barGen++
	n.barCond.Broadcast()
}

// endpoint is one rank's handle. The clock and the RecvTimeout timer are
// owned by the rank's goroutine; Barrier publishes the clock into the
// shared barState under n.mu.
type endpoint struct {
	n     *Net
	rank  int
	ctx   context.Context
	clock float64
	timer transport.WaitTimer
}

func (ep *endpoint) Rank() int { return ep.rank }

func (ep *endpoint) P() int { return ep.n.cfg.P }

func (ep *endpoint) Now() float64 { return ep.clock }

func (ep *endpoint) Elapse(units float64) { ep.clock += units }

// ElapseWork is Elapse: virtual compute time and virtual transfer time are
// the same currency; the distinction exists for decorators.
func (ep *endpoint) ElapseWork(units float64) { ep.clock += units }

// Send stamps the message with the sender's current clock (its arrival
// time) and enqueues it without blocking: a full per-pair buffer is a
// protocol error, not backpressure, on the virtual-time machine.
func (ep *endpoint) Send(to int, tag string, payload transport.Payload) error {
	if to < 0 || to >= ep.n.cfg.P {
		return fmt.Errorf("simnet: proc %d sending to nonexistent proc %d", ep.rank, to)
	}
	msg := message{from: ep.rank, tag: tag, payload: payload, arrive: ep.clock}
	select {
	case ep.n.pairs.For(ep.rank, to) <- msg:
		return nil
	default:
		return fmt.Errorf("simnet: channel %d->%d full (protocol error)", ep.rank, to)
	}
}

// Recv blocks until the next message from `from` arrives, asserts the tag,
// and advances the clock to at least the message's virtual arrival time.
func (ep *endpoint) Recv(from int, tag string) (transport.Payload, error) {
	msg, err := ep.next(from, tag)
	if err != nil {
		return nil, err
	}
	if msg.arrive > ep.clock {
		ep.clock = msg.arrive
	}
	return msg.payload, nil
}

// RecvDeadline receives the next message from `from` but accepts it only if
// its virtual arrival time is at or before the deadline; a later message is
// discarded (the transport drops what the receiver stopped listening for)
// and the receiver's clock advances to the deadline instead. This is the
// timeout primitive behind straggler (delay-fault) mitigation: proceed at
// the deadline with whoever reported in time.
func (ep *endpoint) RecvDeadline(from int, tag string, deadline float64) (transport.Payload, bool, error) {
	msg, err := ep.next(from, tag)
	if err != nil {
		return nil, false, err
	}
	if msg.arrive > deadline {
		if deadline > ep.clock {
			ep.clock = deadline
		}
		return nil, false, nil
	}
	if msg.arrive > ep.clock {
		ep.clock = msg.arrive
	}
	return msg.payload, true, nil
}

// next takes the next message from `from` and checks its tag. A message
// already queued is taken at once; only an empty queue arms the
// RecvTimeout guard, the endpoint's one timer, which a completed receive
// stops at once.
func (ep *endpoint) next(from int, tag string) (message, error) {
	if from < 0 || from >= ep.n.cfg.P {
		return message{}, fmt.Errorf("simnet: proc %d receiving from nonexistent proc %d", ep.rank, from)
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
			err = fmt.Errorf("simnet: proc %d recv from %d canceled: %w", ep.rank, from, ep.ctx.Err())
		case <-ep.timer.Arm(ep.n.cfg.RecvTimeout):
			err = fmt.Errorf("simnet: proc %d timed out waiting for tag %q from %d", ep.rank, tag, from)
		}
		ep.timer.Stop()
		if err != nil {
			return message{}, err
		}
	}
	if msg.tag != tag {
		return message{}, fmt.Errorf("simnet: proc %d expected tag %q from %d, got %q", ep.rank, tag, from, msg.tag)
	}
	return msg, nil
}

// Barrier publishes the endpoint's clock and local fault events into the
// current generation, waits for every active endpoint, then syncs the clock
// to the barrier's completion time and returns the merged event list.
func (ep *endpoint) Barrier(phase string, local []transport.FaultEvent) ([]transport.FaultEvent, error) {
	_ = phase // rendezvous is global; the phase name matters to decorators only
	n := ep.n
	n.mu.Lock()
	defer n.mu.Unlock()

	gen := n.barGen
	if n.cur == nil {
		n.cur, n.idle = n.idle, nil
		if n.cur == nil {
			n.cur = &barState{}
		}
	}
	n.cur.count++
	if ep.clock > n.cur.max {
		n.cur.max = ep.clock
	}
	n.cur.events = append(n.cur.events, local...)

	n.maybeRelease()
	for n.barGen == gen {
		n.barCond.Wait()
	}
	st := n.done[gen]
	if st.max > ep.clock {
		ep.clock = st.max
	}
	events := make([]transport.FaultEvent, len(st.events))
	copy(events, st.events)
	st.readers--
	if st.readers == 0 {
		delete(n.done, gen)
		*st = barState{events: st.events[:0]}
		n.idle = st
	}
	return events, nil
}

// Done retires the endpoint from barrier participation, releasing a
// rendezvous in progress if this was the last arrival it was waiting on.
func (ep *endpoint) Done() {
	n := ep.n
	n.mu.Lock()
	n.active--
	n.maybeRelease()
	n.barCond.Broadcast()
	n.mu.Unlock()
}

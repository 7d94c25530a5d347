package machine

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// pairCap is each per-pair FIFO's capacity in messages. A sim send into a
// full FIFO is a protocol error; a wall send waits for the receiver.
const pairCap = 128

// message is one tagged payload in flight, stamped with the sender's clock
// (after the transfer's charge) when it was sent.
type message struct {
	tag     string
	payload Ints
	stamp   float64
}

// network is the machine's interconnect: one FIFO per ordered (sender,
// receiver) pair and the global barrier rendezvous. A pair's FIFO is made
// on first use of that pair, so a large-P machine pays only for the pairs
// its protocol exercises (grid protocols use O(P·√P) of the P² pairs), and
// it comes from, and goes back to, a process-wide free list: one run of a
// fault-tolerant multiply touches about a hundred pairs, and back-to-back
// runs would otherwise allocate a fresh buffer for each of them every time.
//
// The barrier is a generation rendezvous, and every rank crosses one
// generation at one phase: the phase picks the faults, so a rank that
// arrives at another phase than the generation's first arrival gets a
// protocol error instead of a release that would silently miss its faults.
// A rank that retires stops counting toward the rendezvous, releasing a
// barrier in progress (a rank that exits its program early must not
// deadlock the others).
type network struct {
	p    int
	free *chanPool
	// slots[from*p+to] holds the pair's FIFO: an atomic pointer for the
	// contended fast path, with mu serializing only each slot's first fill.
	slots []atomic.Pointer[chan message]

	mu     sync.Mutex
	used   int          // slots ever filled, before and after close
	active int          // ranks not yet retired
	cur    *barrier     // the generation ranks are arriving at
	idle   *barrier     // a fully read generation, reused by the next
	faults []FaultEvent // every fault injected, in arrival order
	// misses counts, per pair slot, the deadline receives that gave up
	// before their message came (the wall clock's miss): each such message
	// may arrive later and stay queued in that pair's FIFO. Made on the
	// first miss.
	misses map[int]int

	closed atomic.Bool // set by close, once Run has returned
}

// barrier is one generation of the rendezvous. Waiters hold the pointer;
// release sends one token per arrival on the buffered release channel, after
// the events are sorted (the send is the happens-before edge for reading
// them). Once every waiter has read the generation, it is reused by a later
// one; a waiter that gave up (cancellation, timeout) never reads, so its
// generation is simply dropped. Only the generation's first arrival arms
// its timer, so a barrier costs one timer wait however many ranks wait at
// it; if RecvTimeout passes first, that rank expires the generation and
// wakes the others with the same timeout.
type barrier struct {
	phase   string // the phase of the generation's first arrival
	arrived int
	readers int // released waiters yet to read the generation
	events  []FaultEvent
	latest  float64 // the latest clock to arrive; sim clocks move to it
	expired bool    // RecvTimeout passed before every active rank arrived
	release chan struct{}
}

func newNetwork(p int, free *chanPool) *network {
	return &network{p: p, free: free, slots: make([]atomic.Pointer[chan message], p*p), active: p}
}

// pair returns the FIFO from rank `from` to rank `to`. Both ranks may race
// to fill the same slot; the mutex-guarded double-check makes the winner's
// FIFO the one both see.
func (n *network) pair(from, to int) chan message {
	slot := &n.slots[from*n.p+to]
	if c := slot.Load(); c != nil {
		return *c
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if c := slot.Load(); c != nil {
		return *c
	}
	c := n.free.get()
	slot.Store(c)
	n.used++
	return *c
}

// close returns every empty FIFO to the free list. A FIFO still holding
// messages — a straggler's late report that nobody received — is dropped,
// never reused. Call it only once every rank's program has returned; from
// then on send, recv and barrier fail. It returns an error naming the first
// pair, in slot order, whose FIFO holds more messages than that pair's
// deadline receives gave up waiting for, and the tag at its head. A second
// call does nothing.
func (n *network) close() error {
	n.closed.Store(true)
	n.mu.Lock()
	defer n.mu.Unlock()
	var stray error
	for i := range n.slots {
		c := n.slots[i].Swap(nil)
		switch {
		case c == nil:
		case len(*c) == 0:
			n.free.put(c)
		case stray == nil && len(*c) > n.misses[i]:
			// Read the head's tag and queue it again: no sender is left,
			// so the dropped FIFO keeps its count.
			msg := <-*c
			*c <- msg
			stray = fmt.Errorf("machine: proc %d sent %q to proc %d, which never received it (protocol error)", i/n.p, msg.tag, i%n.p)
		}
	}
	return stray
}

// send enqueues msg for rank `to`. A full FIFO fails the send on the sim
// clock and waits for the receiver, under cancellation, on the wall clock.
func (n *network) send(p *Proc, to int, msg message) error {
	if n.closed.Load() {
		return fmt.Errorf("machine: proc %d send to %d after Run returned", p.id, to)
	}
	ch := n.pair(p.id, to)
	select {
	case ch <- msg:
		return nil
	default:
	}
	if !p.clk.backpressure() {
		return fmt.Errorf("machine: channel %d->%d full (protocol error)", p.id, to)
	}
	select {
	case ch <- msg:
		return nil
	case <-p.ctx.Done():
		return fmt.Errorf("machine: proc %d send to %d canceled: %w", p.id, to, p.ctx.Err())
	}
}

// recv takes p's next message from rank `from` and asserts its tag,
// waiting at most wait. A wait that runs out is a miss (ok false, no
// error) when missOK and a protocol timeout otherwise.
func (n *network) recv(p *Proc, from int, tag string, wait time.Duration, missOK bool) (message, bool, error) {
	if n.closed.Load() {
		return message{}, false, fmt.Errorf("machine: proc %d recv from %d after Run returned", p.id, from)
	}
	msg, expired, err := await(p, n.pair(from, p.id), wait)
	switch {
	case err != nil:
		return msg, false, fmt.Errorf("machine: proc %d recv from %d canceled: %w", p.id, from, err)
	case expired && missOK:
		n.mu.Lock()
		if n.misses == nil {
			n.misses = map[int]int{}
		}
		n.misses[from*n.p+p.id]++
		n.mu.Unlock()
		return msg, false, nil
	case expired:
		return msg, false, fmt.Errorf("machine: proc %d timed out waiting for tag %q from %d", p.id, tag, from)
	case msg.tag != tag:
		return msg, false, fmt.Errorf("machine: proc %d expected tag %q from %d, got %q", p.id, tag, from, msg.tag)
	}
	return msg, true, nil
}

// barrier joins the current generation with p's clock and, if p died at
// this crossing, its fault event; waits until every active rank arrives,
// the run is canceled or RecvTimeout declares the protocol dead; then moves
// p's clock to the generation's latest arrival and returns the merged,
// rank-sorted events. An arrival at another phase than the generation's
// first does not join it: it fails with both phases named.
func (n *network) barrier(p *Proc, phase string, died bool) ([]FaultEvent, error) {
	if n.closed.Load() {
		return nil, fmt.Errorf("machine: proc %d barrier %q after Run returned", p.id, phase)
	}
	n.mu.Lock()
	first := n.cur == nil
	if first {
		n.cur, n.idle = n.idle, nil
		if n.cur == nil {
			n.cur = &barrier{release: make(chan struct{}, n.p)}
		}
		n.cur.phase = phase
	}
	b := n.cur
	if b.phase != phase {
		n.mu.Unlock()
		return nil, fmt.Errorf("machine: proc %d crossed barrier %q while the generation crossed %q (protocol error)", p.id, phase, b.phase)
	}
	b.arrived++
	b.latest = max(b.latest, p.clk.now())
	if died {
		ev := FaultEvent{Proc: p.id, Phase: phase}
		b.events = append(b.events, ev)
		n.faults = append(n.faults, ev)
	}
	n.maybeRelease()
	n.mu.Unlock()

	var err error
	if first {
		var expired bool
		_, expired, err = await(p, b.release, p.m.cfg.RecvTimeout)
		if expired {
			n.expire(b)
		}
	} else {
		select {
		case <-b.release:
		case <-p.ctx.Done():
			err = p.ctx.Err()
		}
	}
	switch {
	case err != nil:
		return nil, fmt.Errorf("machine: proc %d barrier %q canceled: %w", p.id, phase, err)
	case b.expired:
		return nil, fmt.Errorf("machine: proc %d timed out in barrier %q", p.id, phase)
	}
	events := make([]FaultEvent, len(b.events))
	copy(events, b.events)
	p.clk.sync(b.latest)
	n.mu.Lock()
	b.readers--
	if b.readers == 0 {
		*b = barrier{events: b.events[:0], release: b.release}
		n.idle = b
	}
	n.mu.Unlock()
	return events, nil
}

// expire ends generation b, whose first arrival waited RecvTimeout, with
// the ranks waiting at it woken to the timeout; later arrivals start a new
// generation. If b was released meanwhile, the first arrival's token is
// already queued and is taken instead.
func (n *network) expire(b *barrier) {
	n.mu.Lock()
	released := n.cur != b
	if !released {
		n.cur = nil
		b.expired = true
		b.wake(b.arrived - 1)
	}
	n.mu.Unlock()
	if released {
		<-b.release
	}
}

// maybeRelease completes the current generation once every active rank has
// arrived. Called with n.mu held, from barrier and from retire.
func (n *network) maybeRelease() {
	b := n.cur
	if b == nil || b.arrived < n.active {
		return
	}
	n.cur = nil
	slices.SortFunc(b.events, func(x, y FaultEvent) int { return cmp.Compare(x.Proc, y.Proc) })
	b.readers = b.arrived
	b.wake(b.arrived)
}

// wake sends k release tokens to the generation's waiters.
func (b *barrier) wake(k int) {
	for range k {
		select {
		case b.release <- struct{}{}:
		default:
			panic("machine: barrier release buffer full") // it holds one token per rank
		}
	}
}

// retire withdraws a rank whose program has returned from the rendezvous,
// releasing a barrier in progress if it was the last arrival waited on.
func (n *network) retire() {
	n.mu.Lock()
	n.active--
	n.maybeRelease()
	n.mu.Unlock()
}

// await receives from ch: at once when a value is ready, otherwise waiting
// up to d on p's one timer, or until p's run is canceled (err). expired
// reports a wait that ran out.
func await[T any](p *Proc, ch <-chan T, d time.Duration) (v T, expired bool, err error) {
	select {
	case v = <-ch:
		return v, false, nil
	default:
	}
	select {
	case v = <-ch:
	case <-p.ctx.Done():
		err = p.ctx.Err()
	case <-p.timer.arm(d):
		expired = true
	}
	p.timer.stop()
	return v, expired, err
}

// waitTimer is one rank's reusable timeout: every blocking wait of the rank
// (a receive, a barrier, a dilated sleep) re-arms the same timer instead of
// allocating a new one. Only the rank's own goroutine may use it. The zero
// value is ready to use.
type waitTimer struct {
	t *time.Timer
}

// arm starts the timer to fire after d and returns its channel. Every arm
// must be followed by stop once the wait is over, whichever case won.
func (w *waitTimer) arm(d time.Duration) <-chan time.Time {
	if w.t == nil {
		w.t = time.NewTimer(d)
	} else {
		w.t.Reset(d)
	}
	return w.t.C
}

// stop disarms the timer and drains a tick that fired but was not
// received, so the next arm never reads a stale expiry as its own.
func (w *waitTimer) stop() {
	if w.t != nil && !w.t.Stop() {
		select {
		case <-w.t.C:
		default:
		}
	}
}

// chanPool is a free list of empty pair FIFOs, shared by every network of
// the process. It keeps at most maxFreeChans of them; the rest are left to
// the garbage collector. The zero value is ready to use.
type chanPool struct {
	mu   sync.Mutex
	free []*chan message
}

// maxFreeChans bounds what the free list retains: a few times the 420
// ordered pairs of the largest fault-tolerant layout the benchmarks run
// (21 ranks), about 5 MB of buffers at most.
const maxFreeChans = 1 << 10

// spare is the free list every machine's network draws from.
var spare chanPool

func (f *chanPool) get() *chan message {
	f.mu.Lock()
	defer f.mu.Unlock()
	if l := len(f.free); l > 0 {
		c := f.free[l-1]
		f.free[l-1] = nil
		f.free = f.free[:l-1]
		return c
	}
	c := make(chan message, pairCap)
	return &c
}

func (f *chanPool) put(c *chan message) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.free) < maxFreeChans {
		f.free = append(f.free, c)
	}
}

package transport

import (
	"sync"
	"sync/atomic"
)

// Pairs is a backend's table of per-pair message FIFOs for P ranks. A
// pair's channel is made on first use of that (sender, receiver) pair, so a
// large-P machine pays only for the pairs its protocol exercises (grid
// protocols use O(P·√P) of the P² pairs). The channels come from, and go
// back to, a process-wide FreeChans: one run of a fault-tolerant multiply
// touches about a hundred pairs, and back-to-back runs would otherwise
// allocate a fresh buffer for each of them every time.
type Pairs[T any] struct {
	p, capacity int
	free        *FreeChans[T]

	// slots[from*p+to] holds the pair's channel: an atomic pointer for the
	// contended fast path, with mu serializing only each slot's first fill.
	slots []atomic.Pointer[chan T]
	mu    sync.Mutex
	used  int // slots ever filled, under mu
}

// NewPairs returns an empty table for p ranks whose channels buffer
// capacity messages, drawn from free.
func NewPairs[T any](p, capacity int, free *FreeChans[T]) *Pairs[T] {
	return &Pairs[T]{p: p, capacity: capacity, free: free, slots: make([]atomic.Pointer[chan T], p*p)}
}

// For returns the FIFO from rank `from` to rank `to`. Both endpoints may
// race to fill the same slot; the mutex-guarded double-check makes the
// winner's channel the one both see.
func (t *Pairs[T]) For(from, to int) chan T {
	slot := &t.slots[from*t.p+to]
	if c := slot.Load(); c != nil {
		return *c
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if c := slot.Load(); c != nil {
		return *c
	}
	c := t.free.get(t.capacity)
	slot.Store(c)
	t.used++
	return *c
}

// Used counts the pairs whose channel this table has handed out, before and
// after Release (the lazy-allocation contract's test hook).
func (t *Pairs[T]) Used() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.used
}

// Release empties the table and returns every empty channel to the free
// list. A channel still holding messages — a straggler's late report that
// nobody received — is dropped, never reused. Call it only once no rank
// can touch the table again; a second call does nothing.
func (t *Pairs[T]) Release() {
	for i := range t.slots {
		if c := t.slots[i].Swap(nil); c != nil && len(*c) == 0 {
			t.free.put(c)
		}
	}
}

// FreeChans is a free list of empty buffered channels, kept per capacity
// so a table never receives a buffer of a size it was not configured for.
// Each capacity keeps at most maxFreeChans channels; the rest are left to
// the garbage collector. The zero value is ready to use.
type FreeChans[T any] struct {
	mu    sync.Mutex
	byCap map[int][]*chan T
}

// maxFreeChans bounds what one capacity's free list retains: a few times
// the 420 ordered pairs of the largest fault-tolerant layout the
// benchmarks run (21 ranks), about 8 MB of 128-slot buffers at most.
const maxFreeChans = 1 << 10

func (f *FreeChans[T]) get(capacity int) *chan T {
	f.mu.Lock()
	defer f.mu.Unlock()
	if l := f.byCap[capacity]; len(l) > 0 {
		c := l[len(l)-1]
		l[len(l)-1] = nil
		f.byCap[capacity] = l[:len(l)-1]
		return c
	}
	c := make(chan T, capacity)
	return &c
}

func (f *FreeChans[T]) put(c *chan T) {
	f.mu.Lock()
	defer f.mu.Unlock()
	capacity := cap(*c)
	if len(f.byCap[capacity]) >= maxFreeChans {
		return
	}
	if f.byCap == nil {
		f.byCap = map[int][]*chan T{}
	}
	f.byCap[capacity] = append(f.byCap[capacity], c)
}

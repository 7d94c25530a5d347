// Package workpool provides the bounded worker pool that all host-level
// parallelism in this repository routes through: the bigint NTT kernel's
// per-prime tasks and the butterfly stages they split. It is a package of
// its own so bigint, beneath every other layer, can fork through
// process-wide GOMAXPROCS slots without spawning raw goroutines (the ftlint
// poolspawn analyzer enforces that statically for every governed package,
// this one included).
//
// Submission never blocks: Fork runs the task inline when no slot is free.
// That property is what makes the pool safe for *recursive* fan-out — a
// worker that submits its own children and then joins them can never
// deadlock waiting for a slot it is itself holding, the classic failure
// mode of a fixed worker set with a blocking queue and nested joins. The
// price is that a "task" may execute on its submitter's stack; the bound on
// live workers (and hence on CPU oversubscription) is exact either way.
package workpool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool admits at most a fixed number of concurrent workers via a slot
// semaphore, running overflow tasks inline on the submitter.
type Pool struct {
	slots chan struct{}
	// idle holds the pool's worker records, one per slot, between tasks. A
	// worker returns its record before its slot, so whoever holds a slot
	// finds a record idle.
	idle chan *worker

	// Telemetry for the tests that assert the slot bound.
	active  atomic.Int64 // workers currently running
	peak    atomic.Int64 // high-water mark of active
	spawned atomic.Int64 // total worker goroutines ever started
	inline  atomic.Int64 // tasks that ran on the submitter (no slot free)
}

// worker carries one task to a pooled goroutine. run is the method value
// w.start, bound once when the record is made, so launching a worker
// allocates neither a closure nor a method value.
type worker struct {
	p   *Pool
	wg  *sync.WaitGroup
	fn  func()
	run func()
}

// New returns a pool admitting at most size concurrent workers (minimum 1).
func New(size int) *Pool {
	if size < 1 {
		size = 1
	}
	p := &Pool{slots: make(chan struct{}, size), idle: make(chan *worker, size)}
	for i := 0; i < size; i++ {
		w := &worker{p: p}
		w.run = w.start
		p.idle <- w
	}
	return p
}

// shared is the process-wide pool that Shared hands out.
var shared atomic.Pointer[Pool]

// Shared returns the process-wide pool, with one slot per GOMAXPROCS: every
// NTT multiplication's prime tasks and butterfly stages draw from the same
// slots, so nested or simultaneous calls cannot oversubscribe the host. A multiplication takes the pool once, when it
// starts. GOMAXPROCS can change after package init (go test -cpu does
// that), so Shared makes a pool of the new size when it has changed; the
// multiplications already running finish on the old one.
func Shared() *Pool {
	n := runtime.GOMAXPROCS(0)
	p := shared.Load()
	if p != nil && p.Capacity() == n {
		return p
	}
	if np := New(n); shared.CompareAndSwap(p, np) {
		return np
	}
	return shared.Load()
}

// Fork runs fn, on a pooled worker goroutine when a slot is free and inline
// otherwise. wg is incremented before the worker starts and released when fn
// returns; inline execution completes before Fork returns and touches wg
// not at all. Launching a worker allocates nothing; fn itself should be a
// value the caller already holds (a bound method value, say) for the whole
// fork to be allocation-free.
func (p *Pool) Fork(wg *sync.WaitGroup, fn func()) {
	select {
	case p.slots <- struct{}{}:
		wg.Add(1)
		p.spawned.Add(1)
		w := <-p.idle
		w.wg, w.fn = wg, fn
		//ftlint:allow poolspawn this is the bounded pool's own worker launch; admission is gated by the slot semaphore acquired above
		go w.run()
	default:
		p.inline.Add(1)
		fn()
	}
}

// start runs the worker's task, then returns the record to the idle list
// before giving up the slot.
func (w *worker) start() {
	p, wg := w.p, w.wg
	defer func() {
		w.wg, w.fn = nil, nil
		p.idle <- w // cannot block: the pool has one record per slot
		p.active.Add(-1)
		<-p.slots
		wg.Done()
	}()
	n := p.active.Add(1)
	for {
		cur := p.peak.Load()
		if n <= cur || p.peak.CompareAndSwap(cur, n) {
			break
		}
	}
	w.fn()
}

// Capacity returns the slot count (the bound on concurrently live workers).
func (p *Pool) Capacity() int { return cap(p.slots) }

// Stats reports the pool's telemetry: the peak number of concurrently live
// workers, the total workers spawned, and how many tasks ran inline on
// their submitter.
func (p *Pool) Stats() (peak, spawned, inline int64) {
	return p.peak.Load(), p.spawned.Load(), p.inline.Load()
}

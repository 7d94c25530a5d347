// Fixture for the arenasafe analyzer: miniature stand-ins for the
// internal/bigint arena API, matched by name.
package arena

type nat []uint64

type arena struct {
	buf []uint64
	off int
}

func (a *arena) mark() int       { return a.off }
func (a *arena) release(m int)   { a.off = m }
func (a *arena) alloc(n int) nat { return make(nat, n) }
func (a *arena) ensure(n int)    {}

func getArena() *arena  { return new(arena) }
func putArena(a *arena) {}

// ok follows the full discipline: deferred put, balanced mark/release,
// ensure before any alloc, no escaping scratch.
func ok(n int) {
	ar := getArena()
	defer putArena(ar)
	ar.ensure(n)
	m := ar.mark()
	_ = ar.alloc(n)
	ar.release(m)
}

// okEager releases without defer but with no return in between.
func okEager(n int) {
	ar := getArena()
	_ = ar.alloc(n)
	putArena(ar)
}

func leak(n int) {
	ar := getArena() // want "never returned with putArena"
	_ = ar.alloc(n)
}

func earlyReturn(n int) nat {
	ar := getArena()
	z := make(nat, n)
	if n > 4 {
		return z // want "putArena is not deferred"
	}
	putArena(ar)
	return z
}

func unbalancedMark(n int) {
	ar := getArena()
	defer putArena(ar)
	m := ar.mark() // want "no matching release"
	_ = m
	_ = ar.alloc(n)
}

func badRelease(n int) {
	ar := getArena()
	defer putArena(ar)
	x := n
	ar.release(x) // want "does not come from mark"
}

func ensureLate(n int) {
	ar := getArena()
	defer putArena(ar)
	_ = ar.alloc(8)
	ar.ensure(n) // want "outstanding allocations"
}

func escape(n int) nat {
	ar := getArena()
	defer putArena(ar)
	z := ar.alloc(n)
	return z // want "escapes via return"
}

// branchPut returns the arena only in one branch: the other path leaks.
// The pre-PR-3 lexical checker saw "a putArena exists" and stayed silent.
func branchPut(n int) {
	ar := getArena()
	_ = ar.alloc(n)
	if n > 4 {
		putArena(ar)
	}
} // want "not returned with putArena on every path"

// loopPut returns the arena inside the loop body, so the next iteration
// allocates from a slab that may already belong to another renter.
func loopPut(ns []int) {
	ar := getArena()
	for _, n := range ns {
		_ = ar.alloc(n) // want "after putArena on some path"
		putArena(ar)    // want "may be returned twice"
	}
} // want "not returned with putArena on every path"

// branchMark releases the mark only when cond holds.
func branchMark(n int, cond bool) {
	ar := getArena()
	defer putArena(ar)
	m := ar.mark()
	_ = ar.alloc(n)
	if cond {
		ar.release(m)
	}
} // want "mark .m. is not released on every path"

// putViaHelper returns the arena through a helper whose summary proves it
// calls putArena on every path — the release-via-helper counts as the
// release (pre-PR-4 the analyzer recorded a plain use and reported a leak
// it could not prove either way).
func putViaHelper(n int) {
	ar := getArena()
	_ = ar.alloc(n)
	finish(ar)
}

func finish(a *arena) { putArena(a) }

// helperUseLeak is the shape the intraprocedural analyzer provably could
// not catch: the helper's summary shows it only allocates from the arena,
// so the caller still owes the putArena — and never pays it.
func helperUseLeak(n int) {
	ar := getArena() // want "never returned with putArena"
	scratch(ar, n)
}

func scratch(a *arena, n int) { _ = a.alloc(n) }

// helperThenPut splits the work correctly: the helper allocates, the
// caller returns the arena.
func helperThenPut(n int) {
	ar := getArena()
	scratch(ar, n)
	putArena(ar)
}

// helperAfterPut uses the arena through a helper after it was returned:
// the summary proves the helper touches the slab.
func helperAfterPut(n int) {
	ar := getArena()
	putArena(ar)
	scratch(ar, n) // want "after putArena"
}

// helperMaybePut hands the arena to a helper that returns it only on some
// paths: nothing can be proven either way, so tracking stands down.
func helperMaybePut(n int) {
	ar := getArena()
	maybeFinish(ar, n > 4)
}

func maybeFinish(a *arena, cond bool) {
	if cond {
		putArena(a)
	}
}

// helperEscape hands the arena to a helper that stores it; ownership
// genuinely transfers and the local checks stand down.
func helperEscape(n int) {
	ar := getArena()
	keep(ar)
}

var kept *arena

func keep(a *arena) { kept = a }

// deferThenExplicit returns the arena explicitly while `defer putArena` is
// still armed: the defer returns it a second time at exit (pre-PR-4 any
// deferred putArena made the analyzer stand down entirely).
func deferThenExplicit(n int) {
	ar := getArena()
	defer putArena(ar)
	_ = ar.alloc(n)
	putArena(ar)
} // want "the defer returns it a second time"

// conditionalDefer arms the return in one branch only; the other path
// falls off the end still rented.
func conditionalDefer(n int) {
	ar := getArena()
	if n > 4 {
		defer putArena(ar)
	}
	_ = ar.alloc(n)
} // want "not returned with putArena on every path"

// deferredClosurePut returns the arena from a deferred closure; the armed
// state is anchored at the defer and covers every exit.
func deferredClosurePut(n int) {
	ar := getArena()
	defer func() {
		putArena(ar)
	}()
	_ = ar.alloc(n)
}

// closureCapture hands the arena to a non-deferred closure: it may run at
// any time (or never), so local tracking ends — no finding.
func closureCapture(n int) func() {
	ar := getArena()
	_ = ar.alloc(n)
	return func() { putArena(ar) }
}

// escapeAllowed shows the audited escape hatch.
func escapeAllowed(n int) nat {
	ar := getArena()
	defer putArena(ar)
	z := ar.alloc(n)
	//ftlint:allow arenasafe fixture: copied by the caller before the arena is reused
	return z
}

// nttWorker models a pool task that rents its own arena so concurrent
// workers never share a slab, with the rental closed on every path before
// the task ends.
func nttWorker(n int) {
	ar := getArena()
	defer putArena(ar)
	ar.ensure(4 * n)
	work := ar.alloc(n)
	butterfly(work)
}

// nttWorkerStageMarks rewinds per-stage scratch with a fresh mark each
// iteration — balanced inside the loop body, so every path through the back
// edge is clean.
func nttWorkerStageMarks(stages, n int) {
	ar := getArena()
	defer putArena(ar)
	for s := 0; s < stages; s++ {
		m := ar.mark()
		tw := ar.alloc(n)
		butterfly(tw)
		ar.release(m)
	}
}

// nttWorkerMarkBeforeLoop takes the mark once but releases it every
// iteration: the second pass rewinds a mark that was already released.
func nttWorkerMarkBeforeLoop(stages, n int) {
	ar := getArena()
	defer putArena(ar)
	m := ar.mark()
	for s := 0; s < stages; s++ {
		butterfly(ar.alloc(n))
		ar.release(m) // want "may be released twice"
	}
} // want "mark .m. is not released on every path"

// nttWorkerErrLeak bails out of the fan-out on a degenerate size without
// closing the rental — the leak hides on the early-return path.
func nttWorkerErrLeak(n int) bool {
	ar := getArena()
	if n == 0 {
		return false // want "putArena is not deferred"
	}
	butterfly(ar.alloc(n))
	putArena(ar)
	return true
}

func butterfly(a nat) {
	for i := range a {
		a[i]++
	}
}

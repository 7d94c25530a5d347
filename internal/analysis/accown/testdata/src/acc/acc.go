// Fixture for the accown analyzer: miniature stand-ins for the
// internal/bigint Acc API, matched by name.
package acc

type Int struct{ v int }

type Acc struct{ v int }

func NewAcc() *Acc                   { return new(Acc) }
func (a *Acc) Release()              {}
func (a *Acc) Reset()                {}
func (a *Acc) Add(x Int)             {}
func (a *Acc) AddMul(x Int, c int64) {}
func (a *Acc) Take() Int             { return Int{} }
func (a *Acc) AddShl(x *Acc, s uint) { a.v += x.v << s }

// ok is the canonical pattern: deferred Release, Take mid-stream is fine.
func ok(xs []Int) Int {
	acc := NewAcc()
	defer acc.Release()
	for _, x := range xs {
		acc.Add(x)
	}
	v := acc.Take()
	acc.Add(v) // Take hands off the value; the Acc itself stays usable
	return acc.Take()
}

// okEager releases without defer, after the last use, with no return before.
func okEager(x Int) Int {
	acc := NewAcc()
	acc.Add(x)
	v := acc.Take()
	acc.Release()
	return v
}

func leak(xs []Int) Int {
	acc := NewAcc() // want "never released back to the pool"
	for _, x := range xs {
		acc.Add(x)
	}
	return acc.Take()
}

func earlyReturn(x Int, cond bool) Int {
	acc := NewAcc()
	acc.Add(x)
	if cond {
		return Int{} // want "Release is not deferred"
	}
	v := acc.Take()
	acc.Release()
	return v
}

func useAfterRelease(x Int) Int {
	acc := NewAcc()
	acc.Add(x)
	acc.Release()
	acc.Add(x)        // want "after Release"
	return acc.Take() // want "after Release"
}

func doubleRelease(x Int) {
	acc := NewAcc()
	acc.Add(x)
	acc.Release()
	acc.Release() // want "released twice"
}

// handoff passes the Acc to a helper whose summary proves it releases on
// every path — the release-via-helper counts as the release, verified
// rather than assumed (pre-PR-4 the analyzer stood down on any handoff).
func handoff(x Int) {
	acc := NewAcc()
	acc.Add(x)
	finish(acc)
}

func finish(a *Acc) {
	defer a.Release()
	_ = a.Take()
}

// helperUseLeak is the shape the intraprocedural analyzer provably could
// not catch: the helper's summary shows it only *uses* the Acc, so the
// caller still owes the release — and never pays it.
func helperUseLeak(x Int) {
	acc := NewAcc() // want "never released back to the pool"
	accumulate(acc, x)
}

func accumulate(a *Acc, x Int) {
	a.Add(x)
	a.AddMul(x, 2)
}

// helperUseThenRelease: a use-only helper followed by the caller's own
// release is the correct split of responsibilities.
func helperUseThenRelease(x Int) Int {
	acc := NewAcc()
	accumulate(acc, x)
	v := acc.Take()
	acc.Release()
	return v
}

// helperMaybeRelease hands the Acc to a helper that releases it only on
// some paths: nothing can be proven either way, so tracking stands down.
func helperMaybeRelease(x Int, cond bool) {
	acc := NewAcc()
	acc.Add(x)
	maybeFinish(acc, cond)
}

func maybeFinish(a *Acc, cond bool) {
	if cond {
		a.Release()
	}
}

// helperEscape hands the Acc to a helper that stores it; ownership
// genuinely transfers and the local checks stand down.
func helperEscape(x Int) {
	acc := NewAcc()
	acc.Add(x)
	stash(acc)
}

var stashed *Acc

func stash(a *Acc) { stashed = a }

// deferThenExplicit releases explicitly while `defer Release` is still
// armed: the defer fires a second time at exit (pre-PR-4 any deferred
// Release made the analyzer stand down entirely).
func deferThenExplicit(x Int) {
	acc := NewAcc()
	defer acc.Release()
	acc.Add(x)
	acc.Release()
} // want "defer releases it a second time"

// shlThenExplicit hands c to AddShl, which only reads c's fields (a use,
// not an escape), then releases c explicitly while its defer is armed.
func shlThenExplicit(x Int) Int {
	pos, c := NewAcc(), NewAcc()
	defer pos.Release()
	defer c.Release()
	c.Add(x)
	pos.AddShl(c, 3)
	c.Release()
	return pos.Take() // want "defer releases it a second time"
}

// conditionalDefer arms the release in one branch only; the other path
// falls off the end still live.
func conditionalDefer(x Int, cond bool) {
	acc := NewAcc()
	if cond {
		defer acc.Release()
	}
	acc.Add(x)
} // want "not released on every path"

// deferredClosureRelease releases through a deferred closure; the armed
// state is anchored at the defer and covers every exit.
func deferredClosureRelease(x Int) Int {
	acc := NewAcc()
	defer func() {
		acc.Release()
	}()
	acc.Add(x)
	return acc.Take()
}

// closureCapture hands the Acc to a non-deferred closure: it may run at
// any time (or never), so local tracking ends — no finding, even though
// no release is visible on the straight-line path.
func closureCapture(x Int) func() {
	acc := NewAcc()
	acc.Add(x)
	return func() { acc.Release() }
}

// branchLeak releases only when cond holds; the fall-through path leaks.
// The pre-PR-3 lexical checker saw "a Release exists" and stayed silent.
func branchLeak(x Int, cond bool) {
	acc := NewAcc()
	acc.Add(x)
	if cond {
		acc.Release()
	}
} // want "not released on every path"

// branchUseAfterRelease merges a released and a live state before the Take.
func branchUseAfterRelease(x Int, cond bool) Int {
	acc := NewAcc()
	acc.Add(x)
	if cond {
		acc.Release()
	}
	return acc.Take() // want "after Release on some path" "leaks Acc .acc. on some path"
}

// loopUseAfterRelease: the Release flows over the loop back edge into the
// next iteration's Add, and the zero-iteration path leaks entirely.
func loopUseAfterRelease(xs []Int) {
	acc := NewAcc()
	for _, x := range xs {
		acc.Add(x)    // want "after Release on some path"
		acc.Release() // want "may be released twice"
	}
} // want "not released on every path"

// leakAllowed shows the audited escape hatch.
func leakAllowed(x Int) Int {
	//ftlint:allow accown fixture: long-lived accumulator owned by the caller's loop
	acc := NewAcc()
	acc.Add(x)
	return acc.Take()
}

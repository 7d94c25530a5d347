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

// ok is the idiom: a deferred Release right after NewAcc. Take hands off
// the value; the Acc itself stays usable.
func ok(xs []Int) Int {
	acc := NewAcc()
	defer acc.Release()
	for _, x := range xs {
		acc.Add(x)
	}
	v := acc.Take()
	acc.Add(v)
	return acc.Take()
}

// okSeveral acquires three at once and defers each Release right after,
// as toom.Recompose does; an Acc passed to another's method is a call
// argument.
func okSeveral(x Int) Int {
	pos, neg, c := NewAcc(), NewAcc(), NewAcc()
	defer pos.Release()
	defer neg.Release()
	defer c.Release()
	c.Add(x)
	neg.Add(x)
	pos.AddShl(c, 3)
	return pos.Take()
}

// okCase holds the idiom in a case clause's statement list.
func okCase(x Int, k int) Int {
	switch k {
	case 0:
		acc := NewAcc()
		defer acc.Release()
		accumulate(acc, x)
		return acc.Take()
	}
	return x
}

func leak(xs []Int) Int {
	acc := NewAcc() // want "never released back to the pool"
	for _, x := range xs {
		acc.Add(x)
	}
	return acc.Take()
}

// notDefined hands NewAcc's result straight to a helper: no name is left
// to defer a Release on.
func notDefined(x Int) {
	accumulate(NewAcc(), x) // want "not the right-hand side of a .:=."
}

// eagerRelease releases after the last use, with no return before: correct
// today, but an edit that adds an early return leaks.
func eagerRelease(x Int) Int {
	acc := NewAcc() // want "not released by a .defer acc.Release\(\). right after"
	acc.Add(x)
	v := acc.Take()
	acc.Release() // want "Release of an Acc outside"
	return v
}

// deferAfterUse defers the Release, but not right after NewAcc.
func deferAfterUse(x Int) Int {
	acc := NewAcc() // want "not released by a .defer acc.Release\(\). right after"
	acc.Add(x)
	defer acc.Release() // want "Release of an Acc outside"
	return acc.Take()
}

func earlyReturn(x Int, cond bool) Int {
	acc := NewAcc() // want "not released by a .defer acc.Release\(\). right after"
	acc.Add(x)
	if cond {
		return Int{}
	}
	v := acc.Take()
	acc.Release() // want "Release of an Acc outside"
	return v
}

func useAfterRelease(x Int) Int {
	acc := NewAcc() // want "not released by a .defer acc.Release\(\). right after"
	acc.Add(x)
	acc.Release() // want "Release of an Acc outside"
	acc.Add(x)
	return acc.Take()
}

func doubleRelease(x Int) {
	acc := NewAcc() // want "not released by a .defer acc.Release\(\). right after"
	acc.Add(x)
	acc.Release() // want "Release of an Acc outside"
	acc.Release() // want "Release of an Acc outside"
}

// handoff passes the Acc to a helper that releases its parameter: correct,
// but the caller's acquisition has no Release, and the helper's Release
// follows no NewAcc.
func handoff(x Int) {
	acc := NewAcc() // want "never released back to the pool"
	acc.Add(x)
	finish(acc)
}

func finish(a *Acc) {
	defer a.Release() // want "Release of an Acc outside"
	_ = a.Take()
}

// helperUseLeak: the helper only uses the Acc, and nobody releases it.
func helperUseLeak(x Int) {
	acc := NewAcc() // want "never released back to the pool"
	accumulate(acc, x)
}

func accumulate(a *Acc, x Int) {
	a.Add(x)
	a.AddMul(x, 2)
}

// deferThenExplicit releases explicitly while `defer Release` is still
// armed: the defer releases it a second time.
func deferThenExplicit(x Int) {
	acc := NewAcc()
	defer acc.Release()
	acc.Add(x)
	acc.Release() // want "Release of an Acc outside"
}

// shlThenExplicit hands c to AddShl, a call argument, then releases c
// explicitly while its defer is armed.
func shlThenExplicit(x Int) Int {
	pos, c := NewAcc(), NewAcc()
	defer pos.Release()
	defer c.Release()
	c.Add(x)
	pos.AddShl(c, 3)
	c.Release() // want "Release of an Acc outside"
	return pos.Take()
}

// conditionalDefer arms the release in one branch only.
func conditionalDefer(x Int, cond bool) {
	acc := NewAcc() // want "not released by a .defer acc.Release\(\). right after"
	if cond {
		defer acc.Release() // want "Release of an Acc outside"
	}
	acc.Add(x)
}

// deferredClosureRelease releases in a deferred closure: correct, but the
// closure captures the Acc.
func deferredClosureRelease(x Int) Int {
	acc := NewAcc() // want "not released by a .defer acc.Release\(\). right after"
	defer func() {
		acc.Release() // want "used other than as a method receiver" "Release of an Acc outside"
	}()
	acc.Add(x)
	return acc.Take()
}

// escapeReturn hands the Acc to its caller, who may use it after the
// deferred Release has put it back in the pool.
func escapeReturn(x Int) *Acc {
	acc := NewAcc()
	defer acc.Release()
	acc.Add(x)
	return acc // want "used other than as a method receiver"
}

// branchLeak releases only when cond holds.
func branchLeak(x Int, cond bool) {
	acc := NewAcc() // want "not released by a .defer acc.Release\(\). right after"
	acc.Add(x)
	if cond {
		acc.Release() // want "Release of an Acc outside"
	}
}

// branchUseAfterRelease uses the Acc after a release in one branch.
func branchUseAfterRelease(x Int, cond bool) Int {
	acc := NewAcc() // want "not released by a .defer acc.Release\(\). right after"
	acc.Add(x)
	if cond {
		acc.Release() // want "Release of an Acc outside"
	}
	return acc.Take()
}

// loopUseAfterRelease releases in the loop body, so the next iteration
// uses a released Acc.
func loopUseAfterRelease(xs []Int) {
	acc := NewAcc() // want "not released by a .defer acc.Release\(\). right after"
	for _, x := range xs {
		acc.Add(x)
		acc.Release() // want "Release of an Acc outside"
	}
}

// leakAllowed shows the audited escape hatch.
func leakAllowed(x Int) Int {
	//ftlint:allow accown fixture: long-lived accumulator owned by the caller's loop
	acc := NewAcc()
	acc.Add(x)
	return acc.Take()
}

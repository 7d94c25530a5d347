// Fixture for the framework's allow audit: a used allow, a stale allow, an
// allow naming an unknown analyzer, and a func-doc allow covering several
// findings. Analyzed by TestAllowAudit with RunAll and the accown and
// poolspawn analyzers.
package stale

type Int struct{ v int }

type Acc struct{ v int }

func NewAcc() *Acc       { return new(Acc) }
func (a *Acc) Release()  {}
func (a *Acc) Add(x Int) {}
func (a *Acc) Take() Int { return Int{} }

// usedAllow really leaks: the allow suppresses a live finding and must not
// be reported by the audit.
func usedAllow(x Int) Int {
	//ftlint:allow accown fixture: accumulator ownership stays with the caller
	acc := NewAcc()
	acc.Add(x)
	return acc.Take()
}

// staleAllow is clean code under an allow that no longer suppresses
// anything — the classic leftover from a refactor.
func staleAllow(x Int) {
	//ftlint:allow accown fixture: leftover suppression
	acc := NewAcc()
	defer acc.Release()
	acc.Add(x)
}

// typoAllow names an analyzer that is not in the run set.
func typoAllow(x Int) {
	//ftlint:allow acccown fixture: typo in the analyzer name
	acc := NewAcc()
	defer acc.Release()
	acc.Add(x)
}

// docAllow's doc comment covers both leaks below; the audit must count the
// comment as used exactly once, not duplicate it into a stale line entry.
//
//ftlint:allow accown fixture: scratch accumulators owned by the test harness
func docAllow(x Int) {
	a := NewAcc()
	a.Add(x)
	b := NewAcc()
	b.Add(x)
}

// commaList's allow names two analyzers with a space after the comma. Both
// names must parse: the accown leak below stays suppressed, and the poolspawn
// entry — which suppresses nothing — must surface as stale instead of being
// swallowed into the rationale.
func commaList(x Int) Int {
	//ftlint:allow accown, poolspawn fixture: list with a space after the comma
	acc := NewAcc()
	acc.Add(x)
	return acc.Take()
}

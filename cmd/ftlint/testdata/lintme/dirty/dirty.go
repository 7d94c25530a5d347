// Package dirty seeds one unsuppressed finding — an accumulator leak
// (accown) — so the CLI test can pin the exit-1 path and the -json findings
// schema.
package dirty

type Int struct{ v int }

type Acc struct{ v int }

func NewAcc() *Acc       { return new(Acc) }
func (a *Acc) Release()  {}
func (a *Acc) Add(x Int) {}
func (a *Acc) Take() Int { return Int{} }

func leak(xs []Int) Int {
	acc := NewAcc()
	for _, x := range xs {
		acc.Add(x)
	}
	return acc.Take()
}

// Fixture for the costcharge analyzer, named "toom" so its synthetic import
// path falls under the cost-accounting rule. Miniature stand-ins for Int,
// Acc, Stats, and Proc are matched by name.
package toom

type Int struct{ v int }

func (x Int) Add(y Int) Int        { return x }
func (x Int) Sub(y Int) Int        { return x }
func (x Int) Mul(y Int) Int        { return x }
func (x Int) MulInt64(v int64) Int { return x }
func (x Int) Shl(s uint) Int       { return x }
func (x Int) Neg() Int             { return x }
func (x Int) IsZero() bool         { return x.v == 0 }
func (x Int) WordLen() int         { return x.v }

type Acc struct{ v int }

func (a *Acc) AddMul(x Int, c int64) {}
func (a *Acc) AddProd(x, y Int)      {}
func (a *Acc) WordLen() int          { return a.v }
func (a *Acc) Take() Int             { return Int{} }

type Stats struct{ WordOps int64 }

func (s *Stats) chargeWords(n int64) {
	if s != nil {
		s.WordOps += n
	}
}

type Proc struct{ flops int64 }

func (p *Proc) Work(n int64) { p.flops += n }

// Uncharged performs limb arithmetic with no channel to the cost model.
func Uncharged(x, y Int) Int { // want "no channel to the F/BW/L cost model"
	return x.Add(y)
}

// UnchargedAcc is the accumulator flavor of the same violation.
func UnchargedAcc(xs []Int) Int { // want "no channel to the F/BW/L cost model"
	var a Acc
	for _, x := range xs {
		a.AddMul(x, 3)
	}
	return a.Take()
}

// UnchargedDot is a dot product on the accumulator's multiply-accumulate
// step with no channel to the cost model.
func UnchargedDot(xs, ys []Int) Int { // want "no channel to the F/BW/L cost model"
	var a Acc
	for i := range xs {
		a.AddProd(xs[i], ys[i])
	}
	return a.Take()
}

// ChargedDot charges each product and partial sum to the processor.
func ChargedDot(p *Proc, xs, ys []Int) Int {
	var a Acc
	for i := range xs {
		a.AddProd(xs[i], ys[i])
		p.Work(int64(xs[i].WordLen()*ys[i].WordLen() + a.WordLen()))
	}
	return a.Take()
}

// ChargedDirect charges Stats itself.
func ChargedDirect(x, y Int, stats *Stats) Int {
	stats.chargeWords(int64(x.WordLen()))
	return x.Add(y)
}

// ChargedProc charges through the machine processor.
func ChargedProc(p *Proc, x, y Int) Int {
	p.Work(2)
	return x.Mul(y)
}

// Endpoint stands in for the transport-seam cost carrier
// (costacct.Endpoint in the real tree, what machine.Proc charges through);
// it is a witness type like Stats and Proc.
type Endpoint struct{ flops int64 }

func (e *Endpoint) Work(n int64) { e.flops += n }

// ChargedEndpoint charges through the transport-seam endpoint.
func ChargedEndpoint(e *Endpoint, x, y Int) Int {
	e.Work(int64(x.WordLen()))
	return x.Mul(y)
}

// ChargedDelegate routes through a cost-aware callee; passing nil Stats is
// the documented caller opt-out, the channel still exists.
func ChargedDelegate(x, y Int) Int {
	return addWithStats(x, y, nil)
}

func addWithStats(x, y Int, stats *Stats) Int {
	stats.chargeWords(int64(x.WordLen()))
	return x.Add(y)
}

// FakeDelegate is the charge-via-helper hole the signature heuristic could
// not see: the helper accepts a *Stats but provably never charges it, so
// the summary refuses to count the call as a witness for the Sub below.
func FakeDelegate(x, y Int) Int { // want "no channel to the F/BW/L cost model"
	z := x.Sub(y)
	return addIgnoringStats(z, y, nil)
}

func addIgnoringStats(x, y Int, stats *Stats) Int {
	_ = stats
	return x
}

// DeepDelegate charges through two helper hops; the summary's transitive
// charge reachability proves the channel exists.
func DeepDelegate(x, y Int, stats *Stats) Int {
	z := x.Sub(y)
	return viaHop(z, y, stats)
}

func viaHop(x, y Int, stats *Stats) Int {
	return addWithStats(x, y, stats)
}

// unexported functions are not checked: their cost is their callers' duty.
func unexportedHelper(x, y Int) Int {
	return x.Sub(y)
}

// Structural reports no finding: Neg/IsZero/WordLen are bookkeeping, not
// limb arithmetic.
func Structural(x Int) bool {
	return x.Neg().IsZero()
}

//ftlint:allow costcharge fixture: host-side assembly outside the model
func Exempt(x, y Int) Int {
	return x.Add(y)
}

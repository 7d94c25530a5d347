// Fixture: faithful miniature of the binomial-tree collectives. costbound
// derives their cost polynomials through the same contracts as the real
// tree (the stand-in type names Proc/Ints/Int trigger the machine-boundary
// contracts) and certifies them against the paper's Table 1 closed forms.
package collective

type Int struct{ lo, hi uint64 }

func (x Int) WordLen() int { return 1 }
func (x Int) Add(y Int) Int {
	x.lo += y.lo
	return x
}

type Ints []Int

type Group []int

func (g Group) Index(id int) int {
	for i, m := range g {
		if m == id {
			return i
		}
	}
	return -1
}

type Proc struct{ id int }

func (p *Proc) ID() int                               { return p.id }
func (p *Proc) Send(to int, tag string, v Ints) error { return nil }
func (p *Proc) Recv(from int, tag string) (Ints, error) {
	return nil, nil
}
func (p *Proc) Work(n int64) {}

type strErr string

func (e strErr) Error() string { return string(e) }

// SumWork counts the word operations of element-wise summation.
func SumWork(a, b Ints) int64 {
	var w int64
	for i := range a {
		la := int64(a[i].WordLen())
		if i < len(b) {
			if lb := int64(b[i].WordLen()); lb > la {
				la = lb
			}
		}
		if la == 0 {
			la = 1
		}
		w += la
	}
	return w
}

func sum(a, b Ints) (Ints, error) {
	if len(a) != len(b) {
		return nil, strErr("collective: vector length mismatch")
	}
	out := make(Ints, len(a))
	for i := range a {
		out[i] = a[i].Add(b[i])
	}
	return out, nil
}

// Broadcast sends v from the root down a binomial tree.
func Broadcast(p *Proc, g Group, rootIdx int, tag string, v Ints) (Ints, error) {
	n := len(g)
	me := g.Index(p.ID())
	if me < 0 {
		return nil, strErr("collective: proc not in group")
	}
	if rootIdx < 0 || rootIdx >= n {
		return nil, strErr("collective: root index out of range")
	}
	r := (me - rootIdx + n) % n
	cur := v
	recvMask := 0
	for mask := 1; mask < n; mask <<= 1 {
		if r >= mask && r < mask<<1 {
			recvMask = mask
			break
		}
	}
	if r != 0 {
		src := (r - recvMask + rootIdx) % n
		got, err := p.Recv(g[src], tag)
		if err != nil {
			return nil, err
		}
		cur = got
	}
	start := recvMask << 1
	if r == 0 {
		start = 1
	}
	for mask := start; mask < n; mask <<= 1 {
		dst := r + mask
		if dst < n {
			if err := p.Send(g[(dst+rootIdx)%n], tag, cur); err != nil {
				return nil, err
			}
		}
	}
	return cur, nil
}

// Reduce element-wise sums every member's vector at the root.
func Reduce(p *Proc, g Group, rootIdx int, tag string, mine Ints) (Ints, error) {
	n := len(g)
	me := g.Index(p.ID())
	if me < 0 {
		return nil, strErr("collective: proc not in group")
	}
	if rootIdx < 0 || rootIdx >= n {
		return nil, strErr("collective: root index out of range")
	}
	r := (me - rootIdx + n) % n
	acc := mine
	for mask := 1; mask < n; mask <<= 1 {
		if r&mask != 0 {
			dst := (r - mask + rootIdx) % n
			return nil, p.Send(g[dst], tag, acc)
		}
		src := r + mask
		if src < n {
			got, err := p.Recv(g[(src+rootIdx)%n], tag)
			if err != nil {
				return nil, err
			}
			p.Work(SumWork(acc, got))
			var serr error
			acc, serr = sum(acc, got)
			if serr != nil {
				return nil, serr
			}
		}
	}
	return acc, nil
}

// Fixture: a broadcast whose relay loop ships the payload twice per round
// ("defensive" redundant send). The derived bandwidth polynomial becomes
// 2·W·⌈log₂ g⌉, diverging from Table 1; costbound must report the
// divergence with both formulas and a concrete witness world.
package collective

type Int struct{ lo, hi uint64 }

func (x Int) WordLen() int { return 1 }

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

type strErr string

func (e strErr) Error() string { return string(e) }

// Broadcast sends v from the root down a binomial tree, but each relay
// round sends the payload twice.
func Broadcast(p *Proc, g Group, rootIdx int, tag string, v Ints) (Ints, error) { // want "Broadcast cost diverges from the paper closed form"
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
			if err := p.Send(g[(dst+rootIdx)%n], tag, cur); err != nil {
				return nil, err
			}
		}
	}
	return cur, nil
}

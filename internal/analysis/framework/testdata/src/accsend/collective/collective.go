// Package collective is a binomial-tree broadcast whose relayed vector is
// re-materialized entry by entry through a pooled bigint.Acc, the way the
// fault-tolerant evaluation and fold loops build their payloads: each
// entry is copied out with AppendValue onto one shared limb slab.
package collective

import (
	"repro/internal/bigint"
	"repro/internal/machine"
)

type Group []int

func (g Group) Index(id int) int {
	for i, m := range g {
		if m == id {
			return i
		}
	}
	return -1
}

// Broadcast relays the root's vector down a binomial tree; every rank
// copies what it holds through an accumulator before sending it on.
func Broadcast(p *machine.Proc, g Group, root int, tag string, v machine.Ints) (machine.Ints, error) {
	n := len(g)
	r := (g.Index(p.ID()) - root + n) % n
	cur := v
	recvMask := 0
	for mask := 1; mask < n; mask <<= 1 {
		if r >= mask && r < mask<<1 {
			recvMask = mask
			break
		}
	}
	if r != 0 {
		got, err := p.Recv(g[(r-recvMask+root)%n], tag)
		if err != nil {
			return nil, err
		}
		cur = got
	}
	acc := bigint.NewAcc()
	defer acc.Release()
	out := make(machine.Ints, len(cur))
	var slab []uint64
	for i := range cur {
		acc.SetInt(cur[i])
		out[i], slab = acc.AppendValue(slab)
	}
	start := recvMask << 1
	if r == 0 {
		start = 1
	}
	for mask := start; mask < n; mask <<= 1 {
		if dst := r + mask; dst < n {
			if err := p.Send(g[(dst+root)%n], tag, out); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

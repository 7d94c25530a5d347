// Package collective implements the collective communication operations the
// parallel Toom-Cook algorithms rely on (Section 2.4 of the paper):
// broadcast, reduce and weighted reduce over arbitrary processor groups of
// the simulated machine, plus the all-to-all personalized exchange that a
// BFS step performs within each grid row. The runtime realizes the paper's
// t-reduce and t-broadcast as one reduce or broadcast per grid column.
//
// Reduce and broadcast use binomial trees, giving the O(log g) latency and
// O(W) bandwidth shapes of Lemma 2.5 / Corollary 2.6 within a group of g
// processors. All collectives are SPMD: every member of the group must call
// the operation with the same group, root and tag.
package collective

import (
	"fmt"

	"repro/internal/bigint"
	"repro/internal/machine"
)

// Group is an ordered list of processor ranks participating in a collective.
type Group []int

// Index returns the position of rank id in the group, or -1.
func (g Group) Index(id int) int {
	for i, r := range g {
		if r == id {
			return i
		}
	}
	return -1
}

// SumWork returns the word-operation count of element-wise adding two
// integer vectors (the reduce combiner's F charge).
func SumWork(a, b machine.Ints) int64 {
	var w int64
	for i := range a {
		l := a[i].Words()
		if i < len(b) {
			l = max(l, b[i].Words())
		}
		w += l
	}
	return w
}

// sum element-wise adds two equal-length integer vectors through one pooled
// accumulator onto one limb slab; a zero addend shares the other's limbs.
func sum(a, b machine.Ints) (machine.Ints, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("collective: vector length mismatch %d vs %d", len(a), len(b))
	}
	out := make(machine.Ints, len(a))
	acc := bigint.NewAcc()
	defer acc.Release()
	var slab []uint64
	for i := range a {
		acc.Reset()
		var lone bigint.Int
		terms := 0
		if !a[i].IsZero() {
			acc.Add(a[i])
			lone, terms = a[i], terms+1
		}
		if !b[i].IsZero() {
			acc.Add(b[i])
			lone, terms = b[i], terms+1
		}
		out[i], slab = acc.AppendEntry(slab, len(a)-i, terms, lone, 1)
	}
	return out, nil
}

// Broadcast sends v from the group's root (given as a group index) to every
// member, over a binomial tree. Every member returns the broadcast vector.
func Broadcast(p *machine.Proc, g Group, rootIdx int, tag string, v machine.Ints) (machine.Ints, error) {
	n := len(g)
	me := g.Index(p.ID())
	if me < 0 {
		return nil, fmt.Errorf("collective: proc %d not in group", p.ID())
	}
	if rootIdx < 0 || rootIdx >= n {
		return nil, fmt.Errorf("collective: root index %d out of range", rootIdx)
	}
	r := (me - rootIdx + n) % n // virtual rank, root at 0
	cur := v
	// Receive once from the appropriate ancestor, then forward.
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

// Reduce element-wise sums every member's vector at the root (group index).
// The root returns the total; other members return nil.
func Reduce(p *machine.Proc, g Group, rootIdx int, tag string, mine machine.Ints) (machine.Ints, error) {
	n := len(g)
	me := g.Index(p.ID())
	if me < 0 {
		return nil, fmt.Errorf("collective: proc %d not in group", p.ID())
	}
	if rootIdx < 0 || rootIdx >= n {
		return nil, fmt.Errorf("collective: root index %d out of range", rootIdx)
	}
	r := (me - rootIdx + n) % n
	acc := mine
	// Binomial tree reduction: at round `mask`, ranks with bit `mask` set
	// send their partial to rank r-mask, then retire.
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

// Exchange performs an all-to-all personalized exchange within the group:
// outgoing[i] is delivered to group member i; the returned slice holds the
// vector received from each member (my own entry passes through untouched).
// This is the within-row redistribution of a parallel Toom-Cook BFS step.
func Exchange(p *machine.Proc, g Group, tag string, outgoing []machine.Ints) ([]machine.Ints, error) {
	n := len(g)
	if len(outgoing) != n {
		return nil, fmt.Errorf("collective: Exchange needs %d outgoing vectors, got %d", n, len(outgoing))
	}
	me := g.Index(p.ID())
	if me < 0 {
		return nil, fmt.Errorf("collective: proc %d not in group", p.ID())
	}
	incoming := make([]machine.Ints, n)
	incoming[me] = outgoing[me]
	// Round-robin schedule: in round d, send to me+d and receive from me-d,
	// keeping the pairwise channels deadlock-free and the load balanced.
	for d := 1; d < n; d++ {
		dst := (me + d) % n
		src := (me - d + n) % n
		if err := p.Send(g[dst], tag, outgoing[dst]); err != nil {
			return nil, err
		}
		got, err := p.Recv(g[src], tag)
		if err != nil {
			return nil, err
		}
		incoming[src] = got
	}
	return incoming, nil
}

// WeightedReduce computes Σ_i weight_i·vector_i at the root: each member
// scales its vector locally (charging the scaling work), then joins a plain
// sum-reduce. This is exactly the code-creation operation of Section 4.1,
// where code processor weights are Vandermonde powers η^l.
//
// The scaled vector is built in one pooled accumulator onto one limb slab;
// a unit weight shares the entries' limbs.
func WeightedReduce(p *machine.Proc, g Group, rootIdx int, tag string, mine machine.Ints, weight int64) (machine.Ints, error) {
	scaled := make(machine.Ints, len(mine))
	acc := bigint.NewAcc()
	defer acc.Release()
	var slab []uint64
	var work int64
	for i := range mine {
		acc.Reset()
		acc.AddMul(mine[i], weight)
		scaled[i], slab = acc.AppendEntry(slab, len(mine)-i, 1, mine[i], weight)
		work += mine[i].Words()
	}
	p.Work(work)
	return Reduce(p, g, rootIdx, tag, scaled)
}

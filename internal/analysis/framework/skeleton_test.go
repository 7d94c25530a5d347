package framework

import (
	"strings"
	"testing"
)

const skeletonSrc = `package p

type Ints []int64
type Group []int

type Proc struct{ id int }

func (p *Proc) ID() int                                                      { return p.id }
func (p *Proc) Send(to int, tag string, v Ints) error                        { return nil }
func (p *Proc) Recv(from int, tag string) (Ints, error)                      { return nil, nil }
func (p *Proc) RecvDeadline(from int, tag string, d int) (Ints, bool, error) { return nil, false, nil }
func (p *Proc) Barrier(phase string) error                                   { return nil }

func verbs(p *Proc, g Group, tag string, v Ints) {
	p.Send(g[0], tag, v)
	p.Recv(g[1], tag)
	p.RecvDeadline(g[1], tag, 5)
	p.Barrier(tag)
}

func boundedLen(p *Proc, g Group, tag string, v Ints) {
	n := len(g)
	for i := 0; i < n; i++ {
		p.Send(g[i], tag, v)
	}
}

func conjunctionBound(p *Proc, g Group, quota int, tag string, v Ints) {
	n := len(g)
	got := 0
	for i := 0; i < n && got < quota; i++ {
		p.Send(g[i], tag, v)
		got += 2
	}
}

func strideBound(p *Proc, g Group, cols int, tag string, v Ints) {
	for u := 1; u < len(g); u += cols {
		p.Send(g[u], tag, v)
	}
}

func downward(p *Proc, g Group, tag string) {
	for i := len(g); i > 0; i-- {
		p.Recv(g[0], tag)
	}
}

func mutatedLimit(p *Proc, g Group, tag string, v Ints) {
	n := len(g)
	for i := 0; i < n; i++ {
		n++
		p.Send(g[0], tag, v)
	}
}

func rangeLoop(p *Proc, g Group, tag string, v Ints) {
	for _, r := range g {
		p.Send(r, tag, v)
	}
}

func quiet(g Group) int {
	s := 0
	for i := 0; i < len(g); i++ {
		s += g[i]
	}
	return s
}

func blocked(p *Proc, tag string, v Ints, c chan int) {
	go p.Barrier(tag)
	select {}
	c <- 1
	<-c
	defer p.Barrier(tag)
	for x := range c {
		p.Send(x, tag, v)
	}
}

func callsBlocked(p *Proc, tag string, v Ints, c chan int) { blocked(p, tag, v, c) }

type hooks struct{ sync func(string) }

func indirect(p *Proc, h hooks, tag string) {
	if h.sync != nil {
		h.sync(tag)
	}
	p.Barrier(tag)
}

func leaf(p *Proc, tag string) { p.Barrier(tag) }
func mid(p *Proc, tag string)  { leaf(p, tag) }
func silent(x int) int         { return x + 1 }
`

func skeletonsFor(t *testing.T) *SkeletonSet {
	t.Helper()
	pkg := typeCheckPkg(t, "p", skeletonSrc)
	sums := ComputeSummaries([]*Package{pkg})
	return ExtractSkeletons(sums, DefaultWorldAxioms())
}

func skel(t *testing.T, set *SkeletonSet, key string) *Skeleton {
	t.Helper()
	sk := set.ByKey[key]
	if sk == nil {
		t.Fatalf("no skeleton for %s", key)
	}
	return sk
}

// TestSkeletonCommSites pins verb classification: each communication verb maps
// to its kind, the tag expression sits at the verb's tag index, and every
// point-to-point site carries its peer-rank expression (barriers do not).
func TestSkeletonCommSites(t *testing.T) {
	set := skeletonsFor(t)
	sk := skel(t, set, "p.verbs")
	if !sk.HasComm() {
		t.Fatal("p.verbs has no comm sites")
	}
	wantKinds := []CommKind{CommSend, CommRecv, CommRecvDeadline, CommBarrier}
	if len(sk.Sites) != len(wantKinds) {
		t.Fatalf("p.verbs has %d sites, want %d", len(sk.Sites), len(wantKinds))
	}
	for i, site := range sk.Sites {
		if site.Kind != wantKinds[i] {
			t.Errorf("site %d kind = %v, want %v", i, site.Kind, wantKinds[i])
		}
		if site.Tag == nil {
			t.Errorf("site %d (%s) has no tag expression", i, site.Method)
		}
		if (site.Kind == CommBarrier) != (site.Rank == nil) {
			t.Errorf("site %d (%s): rank expression presence is wrong", i, site.Method)
		}
	}
	if len(sk.Blockers) != 0 {
		t.Errorf("p.verbs has blockers: %v", sk.Blockers)
	}
}

// TestSkeletonLoopBounds pins the trip-bound prover across the shapes the
// real collectives use: a counter against n := len(g) (bounded by the world
// axioms), a conjunctive condition that proves through either conjunct, a
// loop-invariant identifier stride (offset-class column walks), a bounded
// range over a slice, and the two unprovable shapes (decreasing walk,
// limit mutated in the body) that must surface as blockers.
func TestSkeletonLoopBounds(t *testing.T) {
	set := skeletonsFor(t)
	ax := DefaultWorldAxioms()

	oneLoop := func(key string) CommLoop {
		t.Helper()
		sk := skel(t, set, key)
		if len(sk.Loops) != 1 {
			t.Fatalf("%s has %d comm loops, want 1", key, len(sk.Loops))
		}
		return sk.Loops[0]
	}

	if cl := oneLoop("p.boundedLen"); !cl.Proved || cl.Bound != NewInterval(0, ax.MaxLen) {
		t.Errorf("boundedLen: proved=%v bound=%v, want proved with [0,%d]", cl.Proved, cl.Bound, ax.MaxLen)
	}
	if cl := oneLoop("p.conjunctionBound"); !cl.Proved {
		t.Error("conjunctionBound: a conjunctive condition with one provable conjunct must prove")
	}
	if cl := oneLoop("p.strideBound"); !cl.Proved {
		t.Error("strideBound: a loop-invariant identifier stride must prove")
	}
	if cl := oneLoop("p.rangeLoop"); !cl.Proved || cl.Bound != NewInterval(0, ax.MaxLen) {
		t.Errorf("rangeLoop: proved=%v bound=%v, want proved with [0,%d]", cl.Proved, cl.Bound, ax.MaxLen)
	}
	for _, key := range []string{"p.downward", "p.mutatedLimit"} {
		if cl := oneLoop(key); cl.Proved {
			t.Errorf("%s: proved an unbounded communication loop", key)
		}
		sk := skel(t, set, key)
		if len(sk.Blockers) != 1 || !strings.Contains(sk.Blockers[0].Reason, "no provable trip bound") {
			t.Errorf("%s blockers = %v, want one unbounded-loop blocker", key, sk.Blockers)
		}
	}
	// A loop with neither comm nor calls is not a communication loop.
	if sk := skel(t, set, "p.quiet"); len(sk.Loops) != 0 {
		t.Errorf("quiet: %d comm loops recorded for a pure loop", len(sk.Loops))
	}
}

// TestSkeletonBlockers pins the hard-blocker inventory: raw concurrency and
// channel constructs, deferred communication, and range-over-channel loops
// all disqualify a function from model checking.
func TestSkeletonBlockers(t *testing.T) {
	set := skeletonsFor(t)
	sk := skel(t, set, "p.blocked")
	want := []string{
		"go statement",
		"select statement",
		"raw channel send",
		"raw channel receive",
		"deferred communication",
		"range over channel",
	}
	for _, w := range want {
		found := false
		for _, b := range sk.Blockers {
			if strings.Contains(b.Reason, w) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("p.blocked lacks a %q blocker; got %v", w, sk.Blockers)
		}
	}
	if ok, _ := set.Modelable("p.blocked"); ok {
		t.Error("p.blocked is reported modelable")
	}
	// Blockers propagate through the call graph to callers...
	if ok, bl := set.Modelable("p.callsBlocked"); ok || len(bl) == 0 {
		t.Error("p.callsBlocked inherits no blockers from its callee")
	} else if desc := set.DescribeBlockers(skel(t, set, "p.blocked").Node.Pkg.Fset, bl); !strings.Contains(desc, "go statement") {
		t.Errorf("DescribeBlockers output %q lacks the blocker reason", desc)
	}
	// ...and a clean function stays modelable.
	if ok, bl := set.Modelable("p.verbs"); !ok {
		t.Errorf("p.verbs not modelable: %v", bl)
	}
}

// TestSkeletonIndirectAndReach pins the soft-blocker and reachability
// queries: func-typed hook calls are recorded (not hard blockers), and
// comm-reachability follows call edges.
func TestSkeletonIndirectAndReach(t *testing.T) {
	set := skeletonsFor(t)
	sk := skel(t, set, "p.indirect")
	if len(sk.Indirect) != 1 {
		t.Errorf("p.indirect records %d indirect calls, want 1", len(sk.Indirect))
	}
	if ok, bl := set.Modelable("p.indirect"); !ok {
		t.Errorf("an indirect call must not hard-block: %v", bl)
	}
	for key, want := range map[string]bool{
		"p.leaf":   true,
		"p.mid":    true, // via the call edge to leaf
		"p.silent": false,
		"p.quiet":  false,
	} {
		if got := set.CommReach(key); got != want {
			t.Errorf("CommReach(%s) = %v, want %v", key, got, want)
		}
	}
}

// TestModelBoundaryPkg pins the interpretation boundary: the machine and
// arithmetic packages are primitives/bridged, protocol packages are not.
func TestModelBoundaryPkg(t *testing.T) {
	for path, want := range map[string]bool{
		"repro/internal/machine":    true,
		"repro/internal/toom":       true,
		"repro/internal/erasure":    true,
		"repro/internal/collective": false,
		"repro/internal/ftparallel": false,
		"p":                         false,
	} {
		if got := ModelBoundaryPkg(path); got != want {
			t.Errorf("ModelBoundaryPkg(%q) = %v, want %v", path, got, want)
		}
	}
}

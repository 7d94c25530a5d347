package framework

import (
	"go/ast"
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
	p.ID()
	p.Send(g[0], tag, v)
	p.Recv(g[1], tag)
	p.RecvDeadline(g[1], tag, 5)
	p.Barrier(tag)
}

type hooks struct{ sync func(string) }

type syncer interface{ sync(tag string) }

func indirect(h hooks, tag string) {
	if h.sync != nil {
		h.sync(tag)
	}
}

func viaIface(s syncer, tag string) { s.sync(tag) }
func viaError(err error) string     { return err.Error() }
func inPlace(x int) int             { return func() int { return x }() }

func leaf(p *Proc, tag string) { p.Barrier(tag) }
func mid(p *Proc, tag string)  { leaf(p, tag) }
func silent(x int) int         { return x + 1 }

func ping(p *Proc, n int, tag string) {
	if n > 0 {
		pong(p, n-1, tag)
	}
}

func pong(p *Proc, n int, tag string) {
	ping(p, n, tag)
	leaf(p, tag)
}
`

func skeletonSums(t *testing.T) *Summaries {
	t.Helper()
	return ComputeSummaries([]*Package{typeCheckPkg(t, "p", skeletonSrc)})
}

// TestSkeletonCommSites pins verb classification: each communication verb
// is a site whose tag expression sits at the verb's tag index (the phase
// for barriers), and other Proc methods are not sites.
func TestSkeletonCommSites(t *testing.T) {
	sums := skeletonSums(t)
	n := sums.Graph.Nodes["p.verbs"]
	var got []string
	ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		site, ok := CommSiteAt(n.Pkg.Info, call)
		if !ok {
			return true
		}
		got = append(got, site.Method)
		if id, ok := site.Tag.(*ast.Ident); !ok || id.Name != "tag" {
			t.Errorf("%s: tag expression %v, want the tag parameter", site.Method, site.Tag)
		}
		return true
	})
	want := []string{"Send", "Recv", "RecvDeadline", "Barrier"}
	if len(got) != len(want) {
		t.Fatalf("p.verbs sites = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("site %d = %s, want %s", i, got[i], want[i])
		}
	}
}

// TestSkeletonIndirectAndReach pins "can this call communicate?": a call
// the call graph cannot follow counts (a hook through a func-typed field, a
// method of an interface declared outside the model boundary), a literal
// called in place and the universe's error.Error do not, and the
// Communicates summary follows call edges, through mutual recursion too.
func TestSkeletonIndirectAndReach(t *testing.T) {
	sums := skeletonSums(t)
	for key, want := range map[string]bool{
		"p.leaf":     true,
		"p.mid":      true, // via the call edge to leaf
		"p.ping":     true, // via the cycle through pong
		"p.pong":     true,
		"p.indirect": true, // the hook may send
		"p.viaIface": true,
		"p.viaError": false,
		"p.inPlace":  false,
		"p.silent":   false,
	} {
		if got := sums.Lookup(key).Communicates; got != want {
			t.Errorf("%s.Communicates = %v, want %v", key, got, want)
		}
		n := sums.Graph.Nodes[key]
		if got := sums.MayCommunicate(n.Pkg.Info, n.Decl.Body); got != want {
			t.Errorf("MayCommunicate(%s body) = %v, want %v", key, got, want)
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

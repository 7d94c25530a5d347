// Soundness probes: a send the call graph cannot follow, through a closure
// or through a method of an interface this package declares, is
// communication exactly like the same send written inline. A branch on
// opaque payload data that guards one cannot be skipped, and a protocol
// that sends only through one is still explored.
package hiddensend

type Ints []int64

type Group []int

// Proc is the fixture stand-in for machine.Proc.
type Proc struct{}

func (p *Proc) ID() int                               { return 0 }
func (p *Proc) Send(to int, tag string, v Ints) error { return nil }

func index(g Group, id int) int {
	for i := 0; i < len(g); i++ {
		if g[i] == id {
			return i
		}
	}
	return -1
}

// sender hides a send behind an interface method.
type sender interface {
	send(p *Proc, to int, tag string, v Ints) error
}

type direct struct{}

func (direct) send(p *Proc, to int, tag string, v Ints) error {
	return p.Send(to, tag, v) // want "message tag \"t\" from p1 to p0 is never received"
}

// Direct sends to the root when a payload test holds.
func Direct(p *Proc, g Group, root int, tag string, v Ints) error {
	me := index(g, p.ID())
	if me != root && v[0] > 0 { // want "branch on opaque data guards communication"
		return p.Send(g[root], tag, v)
	}
	return nil
}

// Hooked is Direct with the send inside a closure.
func Hooked(p *Proc, g Group, root int, tag string, v Ints) error {
	me := index(g, p.ID())
	send := func() error { return p.Send(g[root], tag, v) }
	if me != root && v[0] > 0 { // want "branch on opaque data guards communication"
		return send()
	}
	return nil
}

// Iface is Direct with the send behind the interface.
func Iface(p *Proc, g Group, root int, tag string, v Ints) error {
	var s sender = direct{}
	me := index(g, p.ID())
	if me != root && v[0] > 0 { // want "branch on opaque data guards communication"
		return s.send(p, g[root], tag, v)
	}
	return nil
}

// DirectOrphan sends to a root that never receives.
func DirectOrphan(p *Proc, g Group, root int, tag string, v Ints) error {
	if index(g, p.ID()) != root {
		return p.Send(g[root], tag, v) // want "message tag \"t\" from p1 to p0 is never received"
	}
	return nil
}

// IfaceOrphan is DirectOrphan with the send behind the interface: it
// communicates only through the interface method.
func IfaceOrphan(p *Proc, g Group, root int, tag string, v Ints) error {
	var s sender = direct{}
	if index(g, p.ID()) != root {
		return s.send(p, g[root], tag, v)
	}
	return nil
}

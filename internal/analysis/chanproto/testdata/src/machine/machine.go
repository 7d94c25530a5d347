// Fixture for the chanproto analyzer: miniature stand-ins for the
// internal/machine simulator API, matched by name. The fixture's import
// path is "machine", so the analyzer's path scoping applies.
package machine

type Ints []uint64

type Proc struct{ id int }

func (p *Proc) Send(to int, tag string, payload Ints) error { return nil }
func (p *Proc) Recv(from int, tag string) (Ints, error)     { return nil, nil }
func (p *Proc) RecvDeadline(from int, tag string, deadline float64) (Ints, bool, error) {
	return nil, false, nil
}
func (p *Proc) Barrier(phase string) {}

type Machine struct{}

func (m *Machine) Run(body func(p *Proc) error) (int, error) { return 0, nil }

// okPaired: the send tag reappears in a receive, so the pair is consumed.
// Derived tags pair by expression text, as in the real ftparallel tree.
func okPaired(p *Proc, x Ints, tag string) error {
	if err := p.Send(1, tag+"/up", x); err != nil {
		return err
	}
	_, err := p.Recv(0, tag+"/up")
	return err
}

func orphanSend(p *Proc, x Ints) {
	_ = p.Send(1, "orphan/tag", x) // want "no matching Recv"
}

// shadowedSend/shadowedRecv: the tag constants read identically — same
// name, same expression text — but bind different values in their scopes.
// Textual pairing called these matched; value folding proves they never
// are.
func shadowedSend(p *Proc, x Ints) {
	const tag = "shadow/a"
	_ = p.Send(1, tag, x) // want "no matching Recv"
}

func shadowedRecv(p *Proc) {
	const tag = "shadow/b"
	_, _ = p.Recv(0, tag) // want "text pairing matches, the values never will"
}

// crossNamed: a literal send tag pairs with a receive naming it through a
// constant — value folding sees through the different spellings, where
// text pairing would have reported a false orphan.
const crossTag = "cross/named"

func crossNamedSend(p *Proc, x Ints) {
	_ = p.Send(1, "cross/named", x)
}

func crossNamedRecv(p *Proc) {
	_, _ = p.Recv(0, crossTag)
}

// sendAfterRun: once Run returns the machine is torn down. The send inside
// the worker closure is fine (it runs during the simulation); the host-level
// send after Run can never complete.
func sendAfterRun(m *Machine, p *Proc, x Ints) {
	_, _ = m.Run(func(q *Proc) error {
		return q.Send(1, "run/x", x)
	})
	_ = p.Send(1, "run/x", x) // want "after Machine.Run"
}

// condShutdown: Run in one branch taints the merge point — the machine may
// already be shut down when the receive runs.
func condShutdown(m *Machine, p *Proc, c bool) {
	if c {
		_, _ = m.Run(nil)
	}
	_, _ = p.Recv(0, "run/x") // want "after Machine.Run"
}

// okRunThenLocal: non-Proc work after Run is fine.
func okRunThenLocal(m *Machine, p *Proc) int {
	_, _ = m.Run(nil)
	return p.id
}

func hostSendBlocking(ch chan int) {
	ch <- 1 // want "unbuffered channel send"
}

func hostSendUnbufferedMake() {
	ch := make(chan struct{})
	ch <- struct{}{} // want "unbuffered channel send"
}

// hostSendBuffered: a visible non-zero buffer cannot block on the first send.
func hostSendBuffered() {
	ch := make(chan int, 4)
	ch <- 1
}

// hostSendSelect: a select clause with a default never blocks.
func hostSendSelect(ch chan int) {
	select {
	case ch <- 1:
	default:
	}
}

// workerSend: the literal runs on its own goroutine, not the host's.
func workerSend(ch chan int) {
	go func() { ch <- 1 }()
}

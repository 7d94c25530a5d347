// Fixture: one symbolic send tag makes the orphan-receive check go silent
// for the whole package — a send whose tag the checker cannot fold can
// produce any value, so no receive is provably orphaned. The only finding
// is the send-side one: nothing receives the symbolic tag.
package collective

type Payload []float64

type Proc struct{}

func (p *Proc) Send(to int, tag string, payload Payload) error { return nil }
func (p *Proc) Recv(from int, tag string) (Payload, error)     { return nil, nil }

func relay(p *Proc, tag string) {
	_ = p.Send(1, tag+"/down", nil) // want "no matching Recv"
}

func await(p *Proc) {
	_, _ = p.Recv(0, "unmatched/anywhere") // symbolic send above could produce this
}

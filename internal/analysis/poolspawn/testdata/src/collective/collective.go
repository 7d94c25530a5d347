// Fixture for the poolspawn analyzer, named after the collectives: a
// collective runs on its rank's goroutine, the only one that may call the
// rank's Proc.
package collective

type Proc struct{}

func (p *Proc) Send(to int, tag string) error { return nil }

func sendAsync(p *Proc, to int, tag string) {
	go p.Send(to, tag) // want "raw go statement"
}

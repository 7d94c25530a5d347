// Fixture for the poolspawn analyzer, named "collective" so its synthetic
// import path falls under the rule: protomc models the collectives, and
// its evaluator refuses a raw goroutine only on a path a world explores.
package collective

type Proc struct{}

func (p *Proc) Send(to int, tag string) error { return nil }

func sendAsync(p *Proc, to int, tag string) {
	go p.Send(to, tag) // want "raw go statement"
}

// Fixture for the poolspawn analyzer at import path "machine": the machine
// runtime is under the no-raw-goroutines rule just like the algorithm
// packages above it.
package machine

type Proc struct{ rank int }

func deliverAsync(p *Proc, fn func()) {
	go fn() // want "raw go statement"
}

func runProc(p *Proc, body func(*Proc) error) {
	//ftlint:allow poolspawn fixture: the machine's per-processor launch is the sanctioned pool
	go func() { _ = body(p) }()
}

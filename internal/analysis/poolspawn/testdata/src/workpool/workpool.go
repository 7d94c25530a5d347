// Fixture for the poolspawn analyzer, named after the pool package: even
// the pool itself may only launch goroutines at its audited worker-spawn
// site.
package workpool

type token struct{}

// Fork mirrors internal/workpool: the one sanctioned goroutine launch,
// carrying the audit annotation.
func Fork(slots chan token, fn func()) {
	select {
	case t := <-slots:
		//ftlint:allow poolspawn fixture: the pool's own bounded worker launch
		go func() {
			defer func() { slots <- t }()
			fn()
		}()
	default:
		fn()
	}
}

// forkUnannotated is the same launch without the audit trail.
func forkUnannotated(fn func()) {
	go fn() // want "raw go statement"
}

// Fixture for the poolspawn analyzer, named after the Toom-Cook package:
// raw spawns are findings, an annotated one is suppressed.
package toom

type waitGroup struct{ n int }

func (w *waitGroup) Add(delta int) { w.n += delta }
func (w *waitGroup) Done()         { w.n-- }

func spawnRaw(fn func()) {
	go fn() // want "raw go statement"
}

func spawnClosure(wg *waitGroup) {
	wg.Add(1)
	go func() { // want "raw go statement"
		defer wg.Done()
	}()
}

func spawnAllowed(fn func()) {
	//ftlint:allow poolspawn fixture: this is the pool's own worker launch
	go fn()
}

// Fixture for the poolspawn analyzer, named after the NTT tier's package:
// its per-prime and butterfly fan-out must route through the bounded worker
// pool, never raw goroutines.
package bigint

type pool struct{}

func (p *pool) Fork(fns ...func()) {
	for _, fn := range fns {
		fn()
	}
}

var nttPool = &pool{}

// forwardPar is the sanctioned shape: stage halves fan out through the pool
// (which falls back to inline execution when no slot is free).
func forwardPar(a []uint64, half int) {
	nttPool.Fork(
		func() { butterfly(a[:half]) },
		func() { butterfly(a[half:]) },
	)
}

// forwardRaw reintroduces the unbounded spawn the pool exists to prevent.
func forwardRaw(a []uint64, half int) {
	done := make(chan struct{})
	go func() { // want "raw go statement"
		butterfly(a[:half])
		close(done)
	}()
	butterfly(a[half:])
	<-done
}

func butterfly(a []uint64) {
	for i := range a {
		a[i]++
	}
}

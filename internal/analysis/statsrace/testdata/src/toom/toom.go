// Fixture for the statsrace analyzer: miniature stand-ins for the
// internal/toom worker pool and Stats counters, matched by name.
package toom

type Stats struct {
	WordOps int64
	Flops   int64
}

func (s *Stats) chargeWords(n int64) {
	if s != nil {
		s.WordOps += n
	}
}

type pool struct{}

func (p *pool) fork(fn func()) { go fn() }

var leafPool pool

// raceAssign: the workers all charge the spawner's Stats with a plain +=.
func raceAssign(stats *Stats, work []int64) {
	for _, w := range work {
		w := w
		leafPool.fork(func() {
			stats.WordOps += w // want "non-atomic write to shared Stats counter"
		})
	}
}

// raceCharge: chargeWords is a plain += underneath, so calling it on a
// captured Stats races exactly like the direct write.
func raceCharge(stats *Stats, work []int64) {
	for _, w := range work {
		w := w
		leafPool.fork(func() {
			stats.chargeWords(w) // want "chargeWords on shared Stats"
		})
	}
}

// raceGo: go-spawned workers race the same way pool-spawned ones do.
func raceGo(stats *Stats) {
	go func() {
		stats.Flops++ // want "non-atomic update of shared Stats counter"
	}()
}

// okLocal: each worker owns its Stats and publishes into its own slot; the
// spawner merges after the join.
func okLocal(results []Stats, work []int64) {
	for i, w := range work {
		i, w := i, w
		leafPool.fork(func() {
			var local Stats
			local.chargeWords(w)
			local.WordOps += w
			results[i] = local
		})
	}
}

// okNil: the sanctioned concurrent pattern — no stats in the leaves at all
// (chargeWords tolerates nil).
func okNil(work []int64) {
	for _, w := range work {
		w := w
		leafPool.fork(func() {
			var s *Stats
			s.chargeWords(w)
		})
	}
}

// okHost: sequential charging outside any worker literal is fine.
func okHost(stats *Stats, w int64) {
	stats.WordOps += w
	stats.chargeWords(w)
}

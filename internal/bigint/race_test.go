//go:build race

package bigint

// raceEnabled reports whether the race detector is on: it makes sync.Pool
// drop pooled values at random, so allocation counts are not meaningful.
const raceEnabled = true

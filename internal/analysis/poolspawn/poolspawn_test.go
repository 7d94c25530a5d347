package poolspawn_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/poolspawn"
)

func TestPoolSpawnGoverned(t *testing.T) {
	analysistest.Run(t, poolspawn.Analyzer, "toom")
}

// Every package is governed, not only the kernel and runtime ones: a spawn
// in a package no earlier list named is a finding too.
func TestPoolSpawnEveryPackage(t *testing.T) {
	analysistest.Run(t, poolspawn.Analyzer, "other")
}

// The machine runtime's one sanctioned spawn, the per-processor launch,
// carries an allow comment.
func TestPoolSpawnTransportBackend(t *testing.T) {
	analysistest.Run(t, poolspawn.Analyzer, "machine")
}

// The NTT tier's butterfly fan-out goes through the bounded pool, not raw
// goroutines.
func TestPoolSpawnBigint(t *testing.T) {
	analysistest.Run(t, poolspawn.Analyzer, "bigint")
}

// The pool package itself may spawn only at its annotated worker-launch
// site.
func TestPoolSpawnWorkpool(t *testing.T) {
	analysistest.Run(t, poolspawn.Analyzer, "workpool")
}

// A collective runs on its rank's goroutine, the only one that may call the
// rank's Proc, so none may spawn at all.
func TestPoolSpawnCollective(t *testing.T) {
	analysistest.Run(t, poolspawn.Analyzer, "collective")
}

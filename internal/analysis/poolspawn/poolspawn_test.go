package poolspawn_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/poolspawn"
)

func TestPoolSpawnGoverned(t *testing.T) {
	analysistest.Run(t, poolspawn.Analyzer, "toom")
}

func TestPoolSpawnUngoverned(t *testing.T) {
	analysistest.Run(t, poolspawn.Analyzer, "other")
}

// The machine runtime is governed: its one sanctioned spawn, the
// per-processor launch, carries an allow comment.
func TestPoolSpawnTransportBackend(t *testing.T) {
	analysistest.Run(t, poolspawn.Analyzer, "machine")
}

// The NTT tier's home package is governed: butterfly fan-out goes through
// the bounded pool, not raw goroutines.
func TestPoolSpawnBigint(t *testing.T) {
	analysistest.Run(t, poolspawn.Analyzer, "bigint")
}

// The pool package itself is governed; only its annotated worker-launch
// site may spawn.
func TestPoolSpawnWorkpool(t *testing.T) {
	analysistest.Run(t, poolspawn.Analyzer, "workpool")
}

// The collectives are governed: a collective runs on its rank's goroutine,
// the only one that may call the rank's Proc, so none may spawn at all.
func TestPoolSpawnCollective(t *testing.T) {
	analysistest.Run(t, poolspawn.Analyzer, "collective")
}

package modbound_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/framework"
	"repro/internal/analysis/modbound"
)

// The clean fixture is a trimmed mirror of the real kernels: every store,
// Shoup/REDC call, and CRT constant must be machine-provable, so it expects
// zero findings.
func TestModBoundClean(t *testing.T) {
	analysistest.Run(t, modbound.Analyzer, "bigint/clean")
}

// The dirty fixture seeds one lazy-arithmetic defect per kernel.
func TestModBoundDirty(t *testing.T) {
	analysistest.Run(t, modbound.Analyzer, "bigint/dirty")
}

// TestModBoundRealTree is the acceptance proof: the real NTT implementation
// must verify with zero findings and zero allow comments.
func TestModBoundRealTree(t *testing.T) {
	pkgs, err := framework.Load("../../..", "./internal/bigint")
	if err != nil {
		t.Fatalf("loading internal/bigint: %v", err)
	}
	active, suppressed, err := framework.RunAllDetail([]*framework.Analyzer{modbound.Analyzer}, pkgs)
	if err != nil {
		t.Fatalf("running modbound: %v", err)
	}
	// Filter to modbound findings: running a single analyzer makes the
	// framework's allow-comment validator flag suppressions that belong to
	// the analyzers not in this run.
	for _, d := range active {
		if d.Analyzer == "modbound" {
			t.Errorf("%s: %s", d.Position, d.Message)
		}
	}
	for _, d := range suppressed {
		if d.Analyzer == "modbound" {
			t.Errorf("suppressed by allow comment (the real kernels must prove without suppressions): %s: %s", d.Position, d.Message)
		}
	}
}

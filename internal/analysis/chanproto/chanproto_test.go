package chanproto_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/chanproto"
	"repro/internal/analysis/framework"
)

func TestChanProto(t *testing.T) {
	analysistest.Run(t, chanproto.Analyzer, "machine")
}

// The machine's network moves messages over raw channels; the host-send
// discipline applies to a package below the "machine" path segment.
func TestChanProtoTransportBackend(t *testing.T) {
	analysistest.Run(t, chanproto.Analyzer, "machine/net")
}

// Constant-folded pairing: orphan receives, text-vs-value divergence, and
// branch-divergent barrier phases.
func TestChanProtoTagFolding(t *testing.T) {
	analysistest.Run(t, chanproto.Analyzer, "tagfold/machine")
}

// One symbolic send tag must silence the orphan-receive check package-wide.
func TestChanProtoSymbolicSendsSilent(t *testing.T) {
	analysistest.Run(t, chanproto.Analyzer, "tagfold/collective")
}

// The real tree's tags pair, its folded receives all have a producing send,
// and its barriers are straight-line (or error-guarded without an else), so
// chanproto must stay silent on it.
func TestChanProtoRealTree(t *testing.T) {
	pkgs, err := framework.LoadCached("../../..", "./internal/machine/...", "./internal/collective", "./internal/ftparallel", "./internal/ftengine")
	if err != nil {
		t.Fatalf("loading governed packages: %v", err)
	}
	active, suppressed, err := framework.RunAllDetail([]*framework.Analyzer{chanproto.Analyzer}, pkgs)
	if err != nil {
		t.Fatalf("running chanproto: %v", err)
	}
	// Filter to chanproto findings: running a single analyzer makes the
	// framework's allow-comment validator flag suppressions that belong to
	// the analyzers not in this run.
	for _, d := range active {
		if d.Analyzer == "chanproto" {
			t.Errorf("%s: %s", d.Position, d.Message)
		}
	}
	for _, d := range suppressed {
		if d.Analyzer == "chanproto" {
			t.Errorf("suppressed finding on the real tree: %s: %s", d.Position, d.Message)
		}
	}
}

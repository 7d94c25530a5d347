package statsrace_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/statsrace"
)

func TestStatsRace(t *testing.T) {
	analysistest.Run(t, statsrace.Analyzer, "toom")
}

// An accounting decorator that names its counter struct Stats is governed
// too; the fixture proves the coverage.
func TestStatsRaceCostAcct(t *testing.T) {
	analysistest.Run(t, statsrace.Analyzer, "costacct")
}

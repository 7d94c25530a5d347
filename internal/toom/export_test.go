package toom

import "repro/internal/bigint"

// RefMulWithStats exposes the Int-based reference recursion (ref_test.go)
// to the external test package, which can import toomgraph.
func (alg *Algorithm) RefMulWithStats(a, b bigint.Int, stats *Stats) bigint.Int {
	return alg.refMulWithStats(a, b, stats)
}

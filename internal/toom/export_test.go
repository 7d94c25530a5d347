package toom

import "repro/internal/bigint"

// RefMulWithStats exposes the Int-based reference recursion (ref_test.go)
// to the external test package, which can import toomgraph.
func (alg *Algorithm) RefMulWithStats(a, b bigint.Int, stats *Stats) bigint.Int {
	return alg.refMulWithStats(a, b, stats)
}

// Generic returns a copy of alg that runs the generic frame recursion even
// where the Toom-2 kernel applies, for the kernel's identity tests.
func (alg *Algorithm) Generic() *Algorithm {
	cp := *alg
	cp.toom2 = false
	return &cp
}

// UsesToom2Kernel reports whether alg's multiplication runs the Toom-2
// kernel.
func (alg *Algorithm) UsesToom2Kernel() bool { return alg.toom2 }

package ftmul

// Allocation-focused microbenchmarks for the multiplication hot path.
// These track the perf-trajectory quantities that the machine-model
// benchmarks in bench_test.go deliberately ignore: wall-clock ns/op and
// allocs/op of the *sequential* kernels beneath the Toom-Cook stack
// (run them with -benchmem).

import (
	"fmt"
	"testing"

	"repro/internal/bigint"
	"repro/internal/toom"
)

// BenchmarkAllocSequentialToom is the acceptance benchmark for the arena
// kernels: one full sequential Toom-k multiply of 2^16-bit operands.
func BenchmarkAllocSequentialToom(b *testing.B) {
	for _, k := range []int{2, 3} {
		alg := toom.MustNew(k)
		a, x := benchOperands(1 << 16)
		b.Run(fmt.Sprintf("k=%d/bits=65536", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = alg.Mul(a, x)
			}
		})
	}
}

// BenchmarkAllocKernels measures the bigint primitives the recursion bottoms
// out in: schoolbook-range and Karatsuba-range multiplies, addition, and the
// small-scalar multiply used by evaluation/interpolation matrices.
func BenchmarkAllocKernels(b *testing.B) {
	for _, bits := range []int{512, 4096, 1 << 15, 1 << 18} {
		a, x := benchOperands(bits)
		b.Run(fmt.Sprintf("mul/bits=%d", bits), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = a.Mul(x)
			}
		})
	}
	a, x := benchOperands(1 << 15)
	b.Run("add/bits=32768", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = a.Add(x)
		}
	})
	b.Run("mulint64/bits=32768", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = a.MulInt64(-45)
		}
	})
}

// BenchmarkAllocEvalInterp isolates the Toom block primitives (evaluation
// and interpolation) that the accumulator kernels rewired.
func BenchmarkAllocEvalInterp(b *testing.B) {
	for _, k := range []int{2, 3} {
		alg := toom.MustNew(k)
		a, _ := benchOperands(1 << 15)
		digits := make([]bigint.Int, k)
		shift := (a.BitLen() + k - 1) / k
		for i := range digits {
			digits[i] = a.Extract(i*shift, shift)
		}
		b.Run(fmt.Sprintf("eval/k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = alg.EvalDigits(digits, nil)
			}
		})
		evals := alg.EvalDigits(digits, nil)
		prods := make([]bigint.Int, len(evals))
		for i := range prods {
			prods[i] = evals[i].Mul(evals[i])
		}
		b.Run(fmt.Sprintf("interp/k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = alg.Interpolate(prods, nil)
			}
		})
	}
}

// BenchmarkAllocNTT is the acceptance benchmark for the NTT tier of the
// kernel ladder: one balanced multiply per size, dispatched through the
// public sequential path, at sizes where the NTT rung is live (2^18–2^22
// bits). Steady state must stay at one allocation per op — the result — with
// all transform scratch on the pooled arena; ns/op here against the
// Karatsuba baseline is the PR's ≥2× acceptance figure (see EXPERIMENTS.md).
func BenchmarkAllocNTT(b *testing.B) {
	for _, bits := range []int{1 << 18, 1 << 20, 1 << 22} {
		a, x := benchOperands(bits)
		b.Run(fmt.Sprintf("mul/bits=%d", bits), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = a.Mul(x)
			}
		})
	}
	// The same sizes with the NTT rung disabled: the Karatsuba baseline the
	// speedup is measured against.
	prev := bigint.CurrentLadder()
	noNTT := prev
	noNTT.NTTLimbs = 0
	for _, bits := range []int{1 << 18, 1 << 20, 1 << 22} {
		a, x := benchOperands(bits)
		b.Run(fmt.Sprintf("karabase/bits=%d", bits), func(b *testing.B) {
			if err := bigint.SetLadder(noNTT); err != nil {
				b.Fatal(err)
			}
			defer bigint.SetLadder(prev)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = a.Mul(x)
			}
		})
	}
}

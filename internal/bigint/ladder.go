package bigint

// The multiplication crossover ladder: schoolbook → Karatsuba → NTT inside
// natMul, and sequential Toom → NTT at the ftmul level. The crossover points
// are not hardcoded constants scattered through kernels and comments; they
// live in one Ladder profile with compiled-in defaults, which tests may
// replace with SetLadder. Every threshold reference — kernel dispatch,
// scratch sizing, fuzz-range selection, documentation of the current
// values — goes through the accessors below.

import (
	"fmt"
	"sync/atomic"
)

// Ladder is a multiplication crossover profile. The zero value of a field
// disables the corresponding rung (useful for ablations); see Validate for
// the consistency rules. The JSON tags name the profile's keys in the
// benchmark's provenance record.
type Ladder struct {
	// KaratsubaLimbs is the operand size, in limbs, at and above which the
	// balanced kernel switches from the schoolbook inner loop to Karatsuba
	// splitting. Below it the O(n²) loop's locality wins.
	KaratsubaLimbs int `json:"karatsuba_limbs"`
	// NTTLimbs is the tight-transform crossover of the NTT rung:
	// the balanced operand size, in limbs, at which a padding-free
	// three-prime NTT (ntt.go) ties Karatsuba. It is both the floor for the
	// shorter operand and the anchor of the padding-aware cost comparison in
	// nttEligible, which reproduces the NTT's stair-shaped advantage from
	// this one number. Zero or negative disables the NTT rung.
	NTTLimbs int `json:"ntt_limbs"`
	// ToomNTTBits is the operand bit length at and above which the
	// sequential public API (ftmul.Mul and friends) bypasses the Toom-Cook
	// recursion entirely and multiplies through the kernel ladder — the
	// Toom → NTT crossover of the paper's sequential tier. Zero or negative
	// disables the bypass. The parallel and fault-tolerant paths never use
	// it: their algorithm (and its F/BW/L accounting) is the object of
	// study, so they stay on Toom regardless.
	ToomNTTBits int `json:"toom_ntt_bits"`
}

// Compiled-in defaults, measured on the benchmark machine (see
// EXPERIMENTS.md): 40 matches the crossover math/big uses for the same
// limb width; 1500 limbs is the tight-transform tie point between Karatsuba
// and the three-prime NTT (Karatsuba won at 1024, the NTT won at 2048); the
// Toom bypass engages at 2048 limbs expressed in bits, the first size where
// the NTT rung itself is live for balanced operands.
const (
	defaultKaratsubaLimbs = 40
	defaultNTTLimbs       = 1500
	defaultToomNTTBits    = 2048 * 64
)

// DefaultLadder returns the compiled-in crossover profile.
func DefaultLadder() Ladder {
	return Ladder{
		KaratsubaLimbs: defaultKaratsubaLimbs,
		NTTLimbs:       defaultNTTLimbs,
		ToomNTTBits:    defaultToomNTTBits,
	}
}

// The live profile, read on every multiplication dispatch. Atomics so that
// SetLadder in one goroutine (a test installing another profile) cannot
// race with concurrent multiplications; on amd64 the loads compile to plain
// moves.
var (
	ladderKaratsubaLimbs atomic.Int64
	ladderNTTLimbs       atomic.Int64
	ladderToomNTTBits    atomic.Int64
)

func init() { applyLadder(DefaultLadder()) }

func applyLadder(l Ladder) {
	ladderKaratsubaLimbs.Store(int64(l.KaratsubaLimbs))
	ladderNTTLimbs.Store(int64(l.NTTLimbs))
	ladderToomNTTBits.Store(int64(l.ToomNTTBits))
}

// karatsubaThresholdLimbs is the live schoolbook → Karatsuba crossover.
func karatsubaThresholdLimbs() int { return int(ladderKaratsubaLimbs.Load()) }

// nttThresholdLimbs is the live Karatsuba → NTT crossover; <= 0 means the
// NTT rung is disabled.
func nttThresholdLimbs() int { return int(ladderNTTLimbs.Load()) }

// ToomNTTThresholdBits is the live sequential Toom → NTT crossover in bits
// for the public ftmul API; <= 0 means the bypass is disabled.
func ToomNTTThresholdBits() int { return int(ladderToomNTTBits.Load()) }

// CurrentLadder returns the live crossover profile.
func CurrentLadder() Ladder {
	return Ladder{
		KaratsubaLimbs: int(ladderKaratsubaLimbs.Load()),
		NTTLimbs:       int(ladderNTTLimbs.Load()),
		ToomNTTBits:    int(ladderToomNTTBits.Load()),
	}
}

// Validate checks a profile's consistency: the Karatsuba rung is mandatory
// (the schoolbook loop is quadratic) and the NTT rung, when enabled, must
// sit above it.
func (l Ladder) Validate() error {
	if l.KaratsubaLimbs < 2 {
		return fmt.Errorf("bigint: ladder karatsuba_limbs = %d, want >= 2", l.KaratsubaLimbs)
	}
	if l.NTTLimbs > 0 && l.NTTLimbs < l.KaratsubaLimbs {
		return fmt.Errorf("bigint: ladder ntt_limbs = %d below karatsuba_limbs = %d", l.NTTLimbs, l.KaratsubaLimbs)
	}
	return nil
}

// SetLadder installs a crossover profile after validating it. It is safe to
// call concurrently with multiplications (each dispatch reads a consistent
// snapshot of each rung, and any rung combination computes exact products),
// but it is intended for tests that run the kernels under another profile.
func SetLadder(l Ladder) error {
	if err := l.Validate(); err != nil {
		return err
	}
	applyLadder(l)
	return nil
}

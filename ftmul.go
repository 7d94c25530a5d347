// Package ftmul is a fault-tolerant parallel long-integer multiplication
// library, reproducing "Fault-Tolerant Parallel Integer Multiplication"
// (Nissim, Schwartz, Spiizer — SPAA 2024).
//
// It provides three layers:
//
//   - Sequential fast multiplication: the Toom-Cook-k family (Karatsuba is
//     k = 2), with the Lazy Interpolation variant and Toom-Graph-optimized
//     interpolation schedules.
//
//   - Parallel multiplication on a simulated peer-to-peer machine: the
//     BFS-DFS Parallel Toom-Cook of the paper's Section 3, with exact
//     arithmetic (F), bandwidth (BW) and latency (L) accounting along the
//     critical path under the model C = α·L + β·BW + γ·F.
//
//   - Fault tolerance: the paper's mixed linear + polynomial coding
//     (Section 4) tolerating f fail-stop faults with (1+o(1)) overhead and
//     only f·(2k-1)+f·P/(2k-1) code processors, next to the general-purpose
//     baselines it is compared against — replication (f·P extra processors)
//     and checkpoint-restart (recomputation on every fault).
//
// The public API works with math/big integers; all internal arithmetic uses
// the repository's own exact implementations.
package ftmul

import (
	"fmt"
	"math/big"
	"time"

	"repro/internal/bigint"
	"repro/internal/ftengine"
	"repro/internal/ftparallel"
	"repro/internal/machine"
	"repro/internal/parallel"
	"repro/internal/toom"
)

// ToleranceError reports a fault plan beyond what a fault-tolerant run was
// built to tolerate: the failed ranks behind the loss and the tolerance f.
// Every fault-tolerant entry point (MulFaultTolerant, MulReplicated,
// MulMatrixFaultTolerant) wraps it where it gives up, so callers detect it
// with errors.As.
type ToleranceError = ftengine.ToleranceError

// pastToomNTT reports whether MulToom should bypass Toom-Cook and multiply
// through the kernel crossover ladder directly (schoolbook → Karatsuba →
// NTT; internal/bigint). The crossover is the ladder's compiled-in
// ToomNTTBits (bigint.ToomNTTThresholdBits; <= 0 disables the bypass). Only
// the sequential convenience API dispatches on it — the parallel and
// fault-tolerant paths are the object of study and stay on Toom-Cook
// regardless, so their F/BW/L accounting is unaffected.
func pastToomNTT(a, b *big.Int) bool {
	t := bigint.ToomNTTThresholdBits()
	return t > 0 && a.BitLen() >= t && b.BitLen() >= t
}

// Mul multiplies two integers sequentially on the kernel crossover ladder
// (schoolbook → Karatsuba → NTT, climbed by operand size), the fastest
// multiplier in this library at every size. It never fails: any size, any
// sign.
func Mul(a, b *big.Int) *big.Int {
	return bigint.FromBig(a).Mul(bigint.FromBig(b)).ToBig()
}

// MulToom multiplies with sequential Toom-Cook-k over the standard
// evaluation points (0, ±1, ±2, …, ∞); k must be at least 2. Above the
// ladder's Toom → NTT crossover it dispatches past the Toom recursion to the
// kernel ladder, as Mul does at every size.
func MulToom(a, b *big.Int, k int) (*big.Int, error) {
	alg, err := toom.New(k)
	if err != nil {
		return nil, err
	}
	if pastToomNTT(a, b) {
		return Mul(a, b), nil
	}
	return alg.Mul(bigint.FromBig(a), bigint.FromBig(b)).ToBig(), nil
}

// Square returns a² sequentially on the kernel ladder, whose NTT tier has
// its own one-transform squaring fast path.
func Square(a *big.Int) *big.Int {
	ai := bigint.FromBig(a)
	return ai.Mul(ai).ToBig()
}

// Fault phases for fault injection (see the package-level documentation of
// the phases' semantics).
const (
	PhaseEval   = ftparallel.PhaseEval
	PhaseMul    = ftparallel.PhaseMul
	PhaseInterp = ftparallel.PhaseInterp
)

// Fault schedules a fail-stop fault: processor Proc dies at the Hit-th
// occurrence of the named phase barrier, loses all local data, and is
// replaced by a fresh processor at the same rank.
type Fault struct {
	Proc  int
	Phase string
	Hit   int
}

// ClusterConfig describes the simulated machine.
type ClusterConfig struct {
	// P is the number of worker processors; it must be a power of 2k-1
	// for the chosen k (e.g. 3, 9, 27 for Karatsuba; 5, 25 for Toom-3).
	P int
	// Alpha, Beta, Gamma are the runtime-model coefficients: latency per
	// message, time per word, time per word-operation. Zero values pick
	// conventional defaults (1000 / 10 / 1).
	Alpha, Beta, Gamma float64
	// MemoryWords is the per-processor memory M in 64-bit words; 0 means
	// unlimited. A limited budget makes the scheduler insert DFS steps per
	// Lemma 3.1.
	MemoryWords int64
	// DFSSteps overrides the Lemma 3.1 schedule when positive.
	DFSSteps int
	// SpeedFactors optionally slows individual processors down in virtual
	// time (delay faults): processor i's arithmetic costs SpeedFactors[i]×
	// the normal γ. Nil or zero entries mean full speed.
	SpeedFactors []float64
	// Backend selects the machine realization the algorithms run on:
	// "sim" (empty, the default) is the deterministic virtual-clock
	// simulator; "wall" is the in-process wall-clock backend with real
	// deadlines. F, BW and L are identical on both — machine.Proc charges
	// them whatever the clock — so only the meaning of Time changes
	// (virtual cost units versus real seconds or dilated model units).
	Backend string
	// WallTimeDilation applies to the wall backend only: the real duration
	// of one model unit. When set, cost charges are slept off at that rate
	// and clocks read in model units, so straggler slack and speed factors
	// keep their virtual-machine ratios under real time. Zero means
	// free-running with clocks in seconds.
	WallTimeDilation time.Duration
}

func (c ClusterConfig) machineConfig() machine.Config {
	// MemoryWords drives the Lemma 3.1 DFS schedule (dfsSteps); the hard
	// per-store capacity check is a measurement feature of the internal
	// engines (TrackMemory) rather than a public-API failure mode — the
	// paper's M is an asymptotic budget, not a byte-exact allocator.
	return machine.Config{
		Alpha:            c.Alpha,
		Beta:             c.Beta,
		Gamma:            c.Gamma,
		SpeedFactors:     c.SpeedFactors,
		Backend:          machine.Backend(c.Backend),
		WallTimeDilation: c.WallTimeDilation,
	}
}

func (c ClusterConfig) dfsSteps(nBits, k int) int {
	if c.DFSSteps > 0 {
		return c.DFSSteps
	}
	return parallel.DFSStepsFor(int64(nBits)/64+1, k, c.P, c.MemoryWords)
}

// CostReport carries the cost accounting of a simulated run. F, BW and L
// are critical-path figures (max over processors); totals sum over the
// whole machine. Time is the modeled runtime α·L + β·BW + γ·F along the
// critical path.
type CostReport struct {
	F, BW, L                int64
	TotalF, TotalBW, TotalL int64
	Time                    float64
	Processors              int
}

func newCostReport(rep *machine.Report, procs int) *CostReport {
	return &CostReport{
		F: rep.F, BW: rep.BW, L: rep.L,
		TotalF: rep.TotalF, TotalBW: rep.TotalBW, TotalL: rep.TotalL,
		Time: rep.Time, Processors: procs,
	}
}

// MulParallel multiplies on a simulated P-processor machine with Parallel
// Toom-Cook-k (no fault tolerance) and reports the costs.
func MulParallel(a, b *big.Int, k int, cfg ClusterConfig) (*big.Int, *CostReport, error) {
	alg, err := toom.New(k)
	if err != nil {
		return nil, nil, err
	}
	maxBits := maxInt(a.BitLen(), b.BitLen())
	res, err := parallel.Multiply(bigint.FromBig(a), bigint.FromBig(b), parallel.Options{
		Alg:      alg,
		P:        cfg.P,
		DFSSteps: cfg.dfsSteps(maxBits, k),
		Machine:  cfg.machineConfig(),
	})
	if err != nil {
		return nil, nil, err
	}
	return res.Product.ToBig(), newCostReport(res.Report, cfg.P), nil
}

// FTReport extends CostReport with fault-tolerance bookkeeping.
type FTReport struct {
	CostReport
	// CodeProcessors is the number of additional (code) processors:
	// f·(2k-1) linear-code plus f·P/(2k-1) polynomial-code processors.
	CodeProcessors int
	// DeadColumns lists grid columns halted by multiplication-phase faults.
	DeadColumns []int
	// Recovered counts data-loss events repaired by the linear code.
	Recovered int
}

// MulFaultTolerant multiplies with the paper's fault-tolerant parallel
// Toom-Cook-k, tolerating up to f fail-stop faults injected per `faults`.
// The result is exact as long as at most f faults occur; beyond that the
// run fails with an error (never a silently wrong product).
func MulFaultTolerant(a, b *big.Int, k, f int, cfg ClusterConfig, faults []Fault) (*big.Int, *FTReport, error) {
	alg, err := toom.New(k)
	if err != nil {
		return nil, nil, err
	}
	maxBits := maxInt(a.BitLen(), b.BitLen())
	res, err := ftparallel.Multiply(bigint.FromBig(a), bigint.FromBig(b), ftparallel.Options{
		Alg:      alg,
		P:        cfg.P,
		F:        f,
		DFSSteps: cfg.dfsSteps(maxBits, k),
		Machine:  cfg.machineConfig(),
		Faults:   toMachineFaults(faults),
	})
	if err != nil {
		return nil, nil, err
	}
	rep := &FTReport{
		CostReport:     *newCostReport(res.Report, res.Layout.Total()),
		CodeProcessors: res.Layout.ExtraProcessors(),
		DeadColumns:    res.DeadColumns,
		Recovered:      res.Recovered,
	}
	return res.Product.ToBig(), rep, nil
}

// MulStragglerTolerant multiplies with the delay-fault (straggler)
// mitigation mode: slow processors — model them with
// ClusterConfig.SpeedFactors — are not waited for; after `slack` virtual
// time units past each grid row's first finisher, interpolation proceeds
// with the 2k-1 fastest columns, the redundant evaluation-point columns
// standing in for the stragglers. The report's DeadColumns lists the
// columns that were dropped for lateness.
func MulStragglerTolerant(a, b *big.Int, k, f int, slack float64, cfg ClusterConfig) (*big.Int, *FTReport, error) {
	if slack <= 0 {
		return nil, nil, fmt.Errorf("ftmul: straggler slack must be positive, got %v", slack)
	}
	alg, err := toom.New(k)
	if err != nil {
		return nil, nil, err
	}
	res, err := ftparallel.Multiply(bigint.FromBig(a), bigint.FromBig(b), ftparallel.Options{
		Alg:            alg,
		P:              cfg.P,
		F:              f,
		Machine:        cfg.machineConfig(),
		StragglerSlack: slack,
	})
	if err != nil {
		return nil, nil, err
	}
	rep := &FTReport{
		CostReport:     *newCostReport(res.Report, res.Layout.Total()),
		CodeProcessors: res.Layout.ExtraProcessors(),
		DeadColumns:    res.DeadColumns,
		Recovered:      res.Recovered,
	}
	return res.Product.ToBig(), rep, nil
}

// ReplicationReport extends CostReport with replication bookkeeping.
type ReplicationReport struct {
	CostReport
	Fleets      int
	DeadFleets  []int
	ChosenFleet int
}

// MulReplicated multiplies with the replication baseline: f+1 independent
// fleets of P processors (f·P extra processors — the overhead the paper's
// algorithm reduces by Θ(P/(2k-1))).
func MulReplicated(a, b *big.Int, k, f int, cfg ClusterConfig, faults []Fault) (*big.Int, *ReplicationReport, error) {
	alg, err := toom.New(k)
	if err != nil {
		return nil, nil, err
	}
	maxBits := maxInt(a.BitLen(), b.BitLen())
	res, err := ftparallel.MultiplyReplicated(bigint.FromBig(a), bigint.FromBig(b), ftparallel.ReplicationOptions{
		Alg:      alg,
		P:        cfg.P,
		F:        f,
		DFSSteps: cfg.dfsSteps(maxBits, k),
		Machine:  cfg.machineConfig(),
		Faults:   toMachineFaults(faults),
	})
	if err != nil {
		return nil, nil, err
	}
	rep := &ReplicationReport{
		CostReport:  *newCostReport(res.Report, (f+1)*cfg.P),
		Fleets:      res.Fleets,
		DeadFleets:  res.DeadFleets,
		ChosenFleet: res.ChosenFleet,
	}
	return res.Product.ToBig(), rep, nil
}

// CheckpointReport extends CostReport with restart bookkeeping.
type CheckpointReport struct {
	CostReport
	Restarts int
}

// MulCheckpointRestart multiplies with the checkpoint-restart baseline:
// diskless buddy checkpoints plus full recomputation on every fault.
func MulCheckpointRestart(a, b *big.Int, k int, cfg ClusterConfig, faults []Fault) (*big.Int, *CheckpointReport, error) {
	alg, err := toom.New(k)
	if err != nil {
		return nil, nil, err
	}
	maxBits := maxInt(a.BitLen(), b.BitLen())
	res, err := ftparallel.MultiplyCheckpointRestart(bigint.FromBig(a), bigint.FromBig(b), ftparallel.CheckpointOptions{
		Alg:      alg,
		P:        cfg.P,
		DFSSteps: cfg.dfsSteps(maxBits, k),
		Machine:  cfg.machineConfig(),
		Faults:   toMachineFaults(faults),
	})
	if err != nil {
		return nil, nil, err
	}
	rep := &CheckpointReport{
		CostReport: *newCostReport(res.Report, cfg.P),
		Restarts:   res.Restarts,
	}
	return res.Product.ToBig(), rep, nil
}

// GridLayout returns the fault-tolerant processor-grid layout for (P, k, f)
// — worker grid plus linear-code rows plus polynomial-code columns — with
// renderers for the paper's Figures 1 and 2.
func GridLayout(p, k, f int) (ftparallel.Layout, error) {
	return ftparallel.NewLayout(p, k, f)
}

func toMachineFaults(faults []Fault) []machine.Fault {
	out := make([]machine.Fault, len(faults))
	for i, f := range faults {
		out[i] = machine.Fault{Proc: f.Proc, Phase: f.Phase, Hit: f.Hit}
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Validate sanity-checks a cluster configuration for split number k.
func (c ClusterConfig) Validate(k int) error {
	if k < 2 {
		return fmt.Errorf("ftmul: k must be >= 2")
	}
	p := c.P
	if p < 1 {
		return fmt.Errorf("ftmul: P must be positive")
	}
	for p > 1 {
		if p%(2*k-1) != 0 {
			return fmt.Errorf("ftmul: P = %d is not a power of 2k-1 = %d", c.P, 2*k-1)
		}
		p /= 2*k - 1
	}
	switch machine.Backend(c.Backend) {
	case "", machine.BackendSim, machine.BackendWall:
	default:
		return fmt.Errorf("ftmul: unknown backend %q (want %q or %q)", c.Backend, machine.BackendSim, machine.BackendWall)
	}
	return nil
}

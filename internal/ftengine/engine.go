package ftengine

import (
	"fmt"
	"sort"

	"repro/internal/bigint"
	"repro/internal/machine"
)

// Slots maps a virtual output slot to this processor's accumulated share of
// the output vector for that slot. Shares for the same slot from different
// ranks are summed element-wise by Run — the additive gather every coded
// workload in this repo recombines through.
type Slots map[int][]bigint.Int

// Rank is the per-processor mutable state the engine threads through a
// Workload's Step: the coded shard context, the Coder protecting it, and the
// fault bookkeeping the step maintains as it crosses phase barriers.
type Rank struct {
	// Ctx holds the rank's durable coded data (shard + codeword).
	Ctx *Ctx
	// Coder runs the linear-code recovery protocols for this run (nil when
	// the run has no coded prologue).
	Coder *Coder
	// DeadSeen records the workload's dead units (extended-grid columns for
	// the Toom engine, shard ranks for the matrix engine) observed at
	// barriers; identical on every processor since fault events are global.
	DeadSeen map[int]bool
	// Recovered counts data-loss events this rank helped repair.
	Recovered int
	// EvalEvents holds the fault events observed at the PhaseEval barrier,
	// for workloads whose recovery is algorithmic (replica refetch) rather
	// than erasure-coded — identical on every processor.
	EvalEvents []machine.FaultEvent
}

// Workload is a fault-tolerant algorithm the engine can execute: it shards
// its inputs, computes per rank, decodes around the dead shards, and
// recombines the surviving slot shares into the flat output vector.
type Workload interface {
	// Shard returns the rank's flat input shard (nil for ranks that hold no
	// input — code processors, or spare ranks). Called once per rank before
	// the coded prologue; the Coder's linear code protects exactly this
	// vector.
	Shard(rank int) []bigint.Int
	// Step is the SPMD compute body. It may send, receive, barrier, and use
	// rk.Coder's protocols; it must record dead units in rk.DeadSeen and
	// count repairs in rk.Recovered. The returned slot shares are summed
	// across ranks by Run.
	Step(p *machine.Proc, rk *Rank) (Slots, error)
	// Decode maps the gathered slot shares around the dead units reported
	// by rank 0 (fault events are global, so every rank reports the same
	// set). Workloads whose Step already routed around faults return the
	// slots unchanged.
	Decode(dead []int, slots map[int][]bigint.Int) (map[int][]bigint.Int, error)
	// Recombine assembles the decoded slot shares into the output vector.
	Recombine(slots map[int][]bigint.Int) ([]bigint.Int, error)
}

// RunOptions configures one engine execution.
type RunOptions struct {
	// Layout is the processor grid; Machine.P is overridden with its Total.
	Layout Layout
	// Coder protects the input shards (built with NewCoder; a nil erasure
	// code inside it is valid for f = 0). A nil Coder skips the coded
	// prologue: delay-fault mitigation runs without barriers or linear
	// coding (the workload's Step uses the Straggler protocol instead).
	Coder *Coder
	// Machine configures α/β/γ, memory, and the backend.
	Machine machine.Config
	// Faults is the fail-stop injection plan.
	Faults []machine.Fault
}

// RunResult reports one engine execution.
type RunResult struct {
	// Output is the workload's recombined output vector.
	Output []bigint.Int
	// Report is the machine's cost accounting.
	Report *machine.Report
	// Dead lists the workload's dead units as observed by rank 0.
	Dead []int
	// Recovered counts data-loss events repaired by the linear code.
	Recovered int
}

// exec carries the per-run immutable engine state shared by all processors.
type exec struct {
	wl    Workload
	lay   Layout
	coder *Coder
}

// runRank is the generic SPMD body: coded prologue (encode + eval barrier +
// recovery) unless the run has no Coder, then the workload's step. It
// returns the rank's slot shares, the dead units it observed, and the
// repairs it participated in.
func (x *exec) runRank(p *machine.Proc) (Slots, []int, int, error) {
	rk := &Rank{
		Ctx:      &Ctx{Data: x.wl.Shard(p.ID())},
		Coder:    x.coder,
		DeadSeen: map[int]bool{},
	}
	if x.coder != nil {
		if err := x.coder.Protect(p, rk); err != nil {
			return nil, nil, 0, err
		}
	}
	shares, err := x.wl.Step(p, rk)
	if err != nil {
		return nil, nil, 0, err
	}
	var dead []int
	for c := range rk.DeadSeen {
		dead = append(dead, c)
	}
	sort.Ints(dead)
	return shares, dead, rk.Recovered, nil
}

// Run executes the workload on a fresh machine: encode → scatter (via
// Shard) → compute (Step, with barrier/fault-detect inside the coded
// prologue and the step's own phases) → gather (additive slot merge) →
// decode → recombine. The merge and recombination are unmetered read-out,
// exactly like the harness side of the Toom engine they were extracted from.
func Run(wl Workload, opts RunOptions) (*RunResult, error) {
	cfg := opts.Machine
	cfg.P = opts.Layout.Total()
	m, err := machine.New(cfg, opts.Faults)
	if err != nil {
		return nil, err
	}
	x := &exec{wl: wl, lay: opts.Layout, coder: opts.Coder}
	results := make([]Slots, cfg.P)
	deadLog := make([][]int, cfg.P)
	recovered := make([]int, cfg.P)
	rep, err := m.Run(func(p *machine.Proc) error {
		st, dead, rec, err := x.runRank(p)
		if err != nil {
			return err
		}
		results[p.ID()] = st
		deadLog[p.ID()] = dead
		recovered[p.ID()] = rec
		return nil
	})
	if err != nil {
		return nil, err
	}
	perSlot := map[int][]bigint.Int{}
	for _, st := range results {
		for slot, share := range st {
			cur, ok := perSlot[slot]
			if !ok {
				perSlot[slot] = append([]bigint.Int(nil), share...)
				continue
			}
			if len(cur) != len(share) {
				return nil, fmt.Errorf("ftengine: ragged slot shares")
			}
			for i := range cur {
				cur[i] = cur[i].Add(share[i])
			}
		}
	}
	if len(perSlot) == 0 {
		return nil, fmt.Errorf("ftengine: no result shares")
	}
	decoded, err := wl.Decode(deadLog[0], perSlot)
	if err != nil {
		return nil, err
	}
	out, err := wl.Recombine(decoded)
	if err != nil {
		return nil, err
	}
	return &RunResult{
		Output:    out,
		Report:    rep,
		Dead:      deadLog[0],
		Recovered: recovered[0],
	}, nil
}
